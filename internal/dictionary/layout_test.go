package dictionary

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"

	"ritm/internal/serial"
)

func TestParseLayout(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"sorted", true},
		{"", true},
		{"forest", false},
		{"forest:8", false},
		{"btree", false},
	} {
		got, err := ParseLayout(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseLayout(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err == nil && (got != LayoutSorted || got.String() != "sorted") {
			t.Errorf("ParseLayout(%q) = %v, want sorted", tc.in, got)
		}
	}
}

// TestUniformBatchHashedNodes pins what a ∆ rebuild hashes — a count, exact
// and repeatable, not a time — on a published replica (every update is
// copy-on-write): a uniform batch of k into n sorted leaves moves every node
// but rehashes only those whose alignment the shift breaks, about two thirds
// of n+k where the dense rebuild hashed all of them; and a right-edge batch
// still costs O(k·log n). The replica is fed the wire-decoded message, as an
// RA receives it: the authority's own message would be adopted, not replayed.
func TestUniformBatchHashedNodes(t *testing.T) {
	const n, k = 100_000, 1_000
	gen := serial.NewGenerator(0x0B5E55ED, nil)
	a := newTestAuthority(t, 1)
	r := NewReplica(a.CA(), a.PublicKey())
	feed := func(serials []serial.Number) uint64 {
		t.Helper()
		built, err := a.Insert(serials, 1)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := DecodeIssuanceMessage(built.Encode())
		if err != nil {
			t.Fatal(err)
		}
		before := r.tree.HashedNodes()
		if err := r.Update(msg); err != nil {
			t.Fatal(err)
		}
		return r.tree.HashedNodes() - before
	}
	feed(gen.NextN(n))
	uniform := feed(gen.NextN(k))
	rightEdge := make([]serial.Number, k)
	for i := range rightEdge {
		raw := binary.BigEndian.AppendUint64(bytes.Repeat([]byte{0xff}, 12), uint64(i))
		rightEdge[i] = viewSerial(raw)
	}
	edge := feed(rightEdge)
	t.Logf("%d hashes for a uniform batch of %d into %d, %d for a right-edge batch", uniform, k, n, edge)
	if lo, hi := uint64(0.6*(n+k)), uint64(0.75*(n+k)); uniform <= lo || uniform > hi {
		t.Errorf("uniform batch hashed %d nodes, want in (%d, %d]", uniform, lo, hi)
	}
	if limit := uint64(k * (bits.Len(n) + 2)); edge > limit {
		t.Errorf("right-edge batch hashed %d nodes, want ≤ %d", edge, limit)
	}
}
