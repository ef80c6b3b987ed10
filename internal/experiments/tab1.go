package experiments

import (
	"fmt"
	"strings"
	"time"

	"ritm/internal/cryptoutil"
	"ritm/internal/dictionary"
	"ritm/internal/serial"
)

// Tab1 reproduces Table I: the sequence of messages a CA disseminates over
// four ∆ periods — a three-revocation batch with its signed root, two idle
// periods covered by bare freshness statements, and one more revocation
// with a fresh root. The messages are produced by the real authority and
// verified as a replica would.
func Tab1(quick bool) (*Table, error) {
	_ = quick // the scenario is four steps either way
	const delta = 10 * time.Second
	t0 := time.Unix(1_400_000_000, 0)
	now := t0

	signer, err := cryptoutil.NewSigner(nil)
	if err != nil {
		return nil, err
	}
	auth, err := dictionary.NewAuthority(dictionary.AuthorityConfig{
		CA:     "CA1",
		Signer: signer,
		Delta:  delta,
	}, now.Unix())
	if err != nil {
		return nil, err
	}
	replica := dictionary.NewReplica("CA1", auth.PublicKey())

	t := &Table{
		ID:      "tab1",
		Title:   "Messages disseminated over time (Tab I)",
		Columns: []string{"time", "revoked serials", "disseminated message", "bytes"},
	}

	// t = t0: revoke s_a, s_b, s_c.
	gen := serial.NewGenerator(1, serial.SizeDistribution{{Bytes: 3, Weight: 1}})
	batch := gen.NextN(3)
	msg, err := auth.Insert(batch, now.Unix())
	if err != nil {
		return nil, err
	}
	if err := replica.Update(received(msg)); err != nil {
		return nil, fmt.Errorf("tab1: replica rejected issuance: %w", err)
	}
	t.AddRow("t0", serialNames(batch),
		fmt.Sprintf("%s, {root, n=%d, H^m(v), t}_K⁻CA", serialNames(batch), msg.Root.N),
		len(msg.Encode()))

	// t = t0 + ∆ and t0 + 2∆: no revocations; freshness statements only.
	for p := 1; p <= 2; p++ {
		now = t0.Add(time.Duration(p) * delta)
		ref, err := auth.Refresh(now.Unix())
		if err != nil {
			return nil, err
		}
		if ref.NewRoot != nil {
			return nil, fmt.Errorf("tab1: unexpected root rotation at period %d", p)
		}
		if err := replica.ApplyFreshness(ref.Statement, now.Unix()); err != nil {
			return nil, fmt.Errorf("tab1: replica rejected freshness %d: %w", p, err)
		}
		t.AddRow(fmt.Sprintf("t0+%d∆", p), "none",
			fmt.Sprintf("H^(m−%d)(v)", p),
			len(ref.Statement.Encode()))
	}

	// t = t0 + 3∆: revoke s_d; a new signed root (fresh chain) ships.
	now = t0.Add(3 * delta)
	sd := gen.NextN(1)
	msg2, err := auth.Insert(sd, now.Unix())
	if err != nil {
		return nil, err
	}
	if err := replica.Update(received(msg2)); err != nil {
		return nil, fmt.Errorf("tab1: replica rejected second issuance: %w", err)
	}
	t.AddRow("t0+3∆", serialNames(sd),
		fmt.Sprintf("%s, {root', n=%d, H^m(v'), t}_K⁻CA", serialNames(sd), msg2.Root.N),
		len(msg2.Encode()))

	if replica.Count() != 4 {
		return nil, fmt.Errorf("tab1: replica ended at n=%d, want 4", replica.Count())
	}
	t.Notes = append(t.Notes,
		"every message verified by a live replica (signature, count, root replay)",
		"freshness statements are an order of magnitude smaller than signed batches")
	return t, nil
}

// received is msg as a replica elsewhere receives it: the serials and the
// signed root, without the authority's in-process offer of its rebuilt tree,
// so that the replica replays the batch (Fig 2, update).
func received(msg *dictionary.IssuanceMessage) *dictionary.IssuanceMessage {
	return &dictionary.IssuanceMessage{Serials: msg.Serials, Root: msg.Root}
}

func serialNames(serials []serial.Number) string {
	out := make([]string, len(serials))
	for i, s := range serials {
		out[i] = s.String()
	}
	return strings.Join(out, ", ")
}
