package experiments

import (
	"fmt"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/netsim"
	"ritm/internal/serial"
)

// Fig5 reproduces Figure 5: the CDF of the time RAs need to download
// revocation messages of five sizes (0, 15k, 30k, 45k, 60k revocations)
// from a CDN with edge caching disabled (TTL=0), measured from 80 vantage
// points with 10 trials each.
//
// Message sizes are not modelled: each message is built by a real
// dictionary authority (3-byte serials, §VII-A) and encoded with the
// production wire format; only the network is simulated (internal/netsim
// replaces PlanetLab + CloudFront).
func Fig5(quick bool) (*Table, error) {
	counts := []int{0, 15_000, 30_000, 45_000, 60_000}
	trials := 10
	if quick {
		counts = []int{0, 15_000}
		trials = 2
	}

	t := &Table{
		ID:    "fig5",
		Title: "Download-time CDF for five revocation-message sizes, TTL=0 (Fig 5)",
		Columns: []string{
			"revocations", "message KB", "p10 s", "p25 s", "p50 s", "p75 s", "p90 s", "p99 s", "<1s",
		},
		Notes: []string{
			"network: 80-vantage analytic model replacing PlanetLab+CloudFront (internal/netsim)",
			"message bytes: real wire encoding of an issuance message with 3-byte serials",
		},
	}
	network := netsim.NewNetwork(seriesSeed)
	for _, count := range counts {
		bytes, err := messageBytes(count)
		if err != nil {
			return nil, err
		}
		samples := network.Sample(bytes, trials)
		under := 0
		for _, s := range samples {
			if s < time.Second {
				under++
			}
		}
		t.AddRow(
			count,
			kb(float64(bytes)),
			secs(netsim.Quantile(samples, 0.10)),
			secs(netsim.Quantile(samples, 0.25)),
			secs(netsim.Quantile(samples, 0.50)),
			secs(netsim.Quantile(samples, 0.75)),
			secs(netsim.Quantile(samples, 0.90)),
			secs(netsim.Quantile(samples, 0.99)),
			fmt.Sprintf("%.1f%%", 100*float64(under)/float64(len(samples))),
		)
	}
	return t, nil
}

func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// messageBytes builds a revocation message with count revocations exactly
// as the dissemination network would ship it and returns its encoded size.
func messageBytes(count int) (int, error) {
	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return 0, err
	}
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     "fig5-ca",
		Signer: signer,
		Delta:  10 * time.Second,
	}, time.Now().Unix())
	if err != nil {
		return 0, err
	}
	if count == 0 {
		// Freshness statement only.
		st, err := auth.Statement(time.Now().Unix())
		if err != nil {
			return 0, err
		}
		return len(st.Encode()), nil
	}
	gen := serial.NewGenerator(uint64(count), serial.SizeDistribution{{Bytes: 3, Weight: 1}})
	msg, err := auth.Insert(gen.NextN(count), time.Now().Unix())
	if err != nil {
		return 0, err
	}
	return len(msg.Encode()), nil
}
