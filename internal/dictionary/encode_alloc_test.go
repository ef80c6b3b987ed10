package dictionary

import (
	"testing"
	"time"

	"ritm/internal/serial"
)

// TestEncodeAllocsPinned pins the pooled-encoder win on the status hot
// path: once the encoder pool is warm, Proof.Encode and Status.Encode
// each cost a single allocation — the right-sized output copy. The bound
// allows one extra allocation of slack so an unlucky pool miss (GC
// between runs) cannot flake the test, while still catching any
// regression to the grow-as-you-append encoding this replaced (three or
// more allocations per call).
func TestEncodeAllocsPinned(t *testing.T) {
	now := time.Now().Unix()
	a, r, _ := mappedFixture(t, fixtureBatches(0xA110C, []int{120, 80}), now)
	_ = a
	snap := r.Snapshot()
	absent := serial.NewGenerator(0xBEEF, nil).Next()
	st, err := snap.Prove(absent)
	if err != nil {
		t.Fatal(err)
	}
	if st.rootEnc == nil {
		t.Fatal("snapshot status is missing the memoized root encoding")
	}

	if allocs := testing.AllocsPerRun(200, func() { _ = st.Proof.Encode() }); allocs > 2 {
		t.Errorf("Proof.Encode allocs/op = %.1f, want ≤ 2", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = st.Encode() }); allocs > 2 {
		t.Errorf("Status.Encode allocs/op = %.1f, want ≤ 2", allocs)
	}

	// The memoized root bytes must be indistinguishable from a fresh
	// encoding: a decoded status (no memo) re-encodes byte-identically.
	reparsed, err := DecodeStatus(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(reparsed.Encode()), string(st.Encode()); got != want {
		t.Error("memoized and fresh status encodings differ")
	}
}
