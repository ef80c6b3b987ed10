package dictionary

import (
	"sync"
	"testing"

	"ritm/internal/serial"
)

// TestLayoutLogSuffixImmutableUnderConcurrentInsert pins LogSuffix's
// aliasing contract: the returned sub-slice shares the tree's log backing,
// and stays byte-for-byte stable while InsertBatch keeps appending — the
// log is append-only, and the three-index clip keeps even a caller's own
// append out of the tree's array. The "Layout" name places it in CI's
// dictionary property suite, which runs under the race detector: it proves
// the reader and the inserter never touch the same memory.
func TestLayoutLogSuffixImmutableUnderConcurrentInsert(t *testing.T) {
	t.Run("sorted", func(t *testing.T) {
		tree := NewTree()
		gen := serial.NewGenerator(0x10F5, nil)
		if err := tree.InsertBatch(gen.NextN(500)); err != nil {
			t.Fatal(err)
		}
		suffix, err := tree.LogSuffix(100, 500)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]serial.Number, len(suffix))
		copy(want, suffix)

		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := tree.InsertBatch(gen.NextN(100)); err != nil {
					t.Error(err)
					return
				}
			}
			close(stop)
		}()
		// Read the previously returned suffix concurrently with the
		// inserts; under -race any overlapping write is a hard failure,
		// and value equality catches non-racy clobbering too.
		for {
			for i := range suffix {
				if !suffix[i].Equal(want[i]) {
					t.Errorf("suffix[%d] mutated by concurrent insert", i)
					wg.Wait()
					return
				}
			}
			select {
			case <-stop:
				wg.Wait()
				for i := range suffix {
					if !suffix[i].Equal(want[i]) {
						t.Fatalf("suffix[%d] mutated after inserts finished", i)
					}
				}
				// A caller append must grow into fresh backing, not the
				// tree's log (capacity is clipped to the suffix length).
				grown := append(suffix, serial.FromUint64(7))
				if got, err := tree.LogSuffix(500, 501); err != nil {
					t.Fatal(err)
				} else if got[0].Equal(grown[len(grown)-1]) {
					t.Fatal("caller append wrote into the tree's log")
				}
				return
			default:
			}
		}
	})
}
