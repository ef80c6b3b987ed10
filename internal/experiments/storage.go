package experiments

import (
	"fmt"
	"runtime"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/workload"
)

// Storage reproduces the §VII-D storage-overhead measurement: all 254
// dictionaries are built from the full corpus (1,381,992 revocations,
// 3-byte serials per the paper's convention) and the serialized and
// resident sizes are reported, plus the paper's 10-million-revocation
// scaling point (exact serialized arithmetic, extrapolated resident size).
func Storage(quick bool) (*Table, error) {
	corpus := workload.NewCorpus()
	scale := 1
	if quick {
		scale = 50
	}

	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	now := time.Now().Unix()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	total := 0
	serialized := 0
	footprint := 0
	dicts := make([]*dictionary.Authority, 0, corpus.Len())
	for i := 0; i < corpus.Len(); i++ {
		entries := corpus.Size(i) / scale
		if entries == 0 {
			entries = 1
		}
		auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
			CA:     dictionary.CAID(fmt.Sprintf("ca-%03d", i)),
			Signer: signer,
			Delta:  time.Hour,
			// A short chain keeps the per-dictionary freshness chain from
			// dominating the measurement (it is not revocation storage).
			ChainLength: 16,
		}, now)
		if err != nil {
			return nil, err
		}
		gen := serial.NewGenerator(uint64(i+1), serial.SizeDistribution{{Bytes: 3, Weight: 1}})
		if _, err := auth.Insert(gen.NextN(entries), now); err != nil {
			return nil, err
		}
		total += entries
		serialized += auth.SerializedSize()
		footprint += auth.MemoryFootprint()
		dicts = append(dicts, auth)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	residentMB := float64(after.HeapAlloc-before.HeapAlloc) / 1e6
	runtime.KeepAlive(dicts)

	t := &Table{
		ID:      "storage",
		Title:   "Dictionary storage overhead (§VII-D)",
		Columns: []string{"metric", "value"},
		Notes: []string{
			"3-byte serials per the paper's convention (§VII-A)",
			"paper: ≈4 MB serialized, 36 MB resident for the full dataset",
		},
	}
	t.AddRow("dictionaries", len(dicts))
	t.AddRow("revocations", total)
	t.AddRow("serialized MB (issuance logs)", fmt.Sprintf("%.1f", float64(serialized)/1e6))
	t.AddRow("tree footprint MB (analytic)", fmt.Sprintf("%.1f", float64(footprint)/1e6))
	t.AddRow("heap growth MB (measured)", fmt.Sprintf("%.1f", residentMB))

	// 10 M scaling point: serialized is exact (1-byte length prefix plus
	// a 3-byte serial per entry); the footprint extrapolates linearly from
	// the measured per-revocation cost.
	perRevFootprint := float64(footprint) / float64(total)
	t.AddRow("10M revocations: serialized MB", fmt.Sprintf("%.1f", 10e6*4/1e6))
	t.AddRow("10M revocations: footprint MB (extrapolated)",
		fmt.Sprintf("%.1f", 10e6*perRevFootprint/1e6))
	if quick {
		t.Notes = append(t.Notes, fmt.Sprintf("quick mode: corpus scaled down by %d", scale))
	}
	return t, nil
}
