// Dictionary-layout benchmarks: the per-∆-cycle insert cost of the sorted
// and forest commitment structures across corpus sizes, for the two serial
// distributions that matter — uniform (random serials, the realistic CA
// workload) and right-edge (monotonically increasing serials, the sorted
// layout's best case). The reported hashed-nodes/cycle metric counts actual
// hash computations, isolating the algorithmic cost from allocator noise;
// ns/op measures the wall-clock per cycle.
//
// The tentpole claim: at the paper's largest-CRL size (339,557 entries) and
// beyond, the forest layout's uniform-insert cost is ≥10× below the sorted
// layout's (which rehashes O(n) per uniform batch), and roughly flat in n,
// while right-edge inserts stay within noise of the sorted layout's
// incremental O(k·log n) path.
package ritm_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ritm/internal/dictionary"
	"ritm/internal/serial"
	"ritm/internal/workload"
)

// uniformInsertBatch is the per-∆ batch size: k new revocations per cycle,
// small relative to the corpus (a CA revokes a handful of certificates per
// dissemination interval, §VII-A).
const uniformInsertBatch = 64

// rightEdgeGen produces strictly increasing serials beyond any serial the
// workload generator can plausibly draw: a 12-byte 0xff prefix followed by
// a big-endian counter.
type rightEdgeGen struct{ next uint64 }

func (g *rightEdgeGen) batch(k int) []serial.Number {
	out := make([]serial.Number, k)
	for i := range out {
		g.next++
		b := make([]byte, serial.MaxLen)
		for j := 0; j < 12; j++ {
			b[j] = 0xff
		}
		binary.BigEndian.PutUint64(b[12:], g.next)
		s, err := serial.New(b)
		if err != nil {
			panic(err)
		}
		out[i] = s
	}
	return out
}

// BenchmarkUniformInsert measures one ∆ cycle (one k-insert batch) against
// a pre-built dictionary of n entries, per layout and serial distribution.
// Back-to-back batches ("uniform", "rightedge") stay inside the layout's
// private window, so after the first iteration they time the in-place arena
// path — an authority between checkpoints. "published" is the uniform batch
// with a view taken after every insert, which is what a replica does
// (Replica.Update publishes a snapshot per batch): every rebuild is
// copy-on-write into fresh arrays, the path three of the four copies of a
// dictionary in a deployment take.
func BenchmarkUniformInsert(b *testing.B) {
	for _, n := range []int{10_000, 100_000, workload.LargestCRLEntries, 1_000_000} {
		for _, layout := range dictionary.Layouts() {
			for _, mode := range []string{"uniform", "published", "rightedge"} {
				b.Run(fmt.Sprintf("n=%d/%s/%s", n, layout, mode), func(b *testing.B) {
					gen := serial.NewGenerator(uint64(n)^0x10_5E27, nil)
					tree := dictionary.NewTreeWithLayout(layout)
					if err := tree.InsertBatch(gen.NextN(n)); err != nil {
						b.Fatal(err)
					}
					edge := &rightEdgeGen{}
					batches := make([][]serial.Number, b.N)
					for i := range batches {
						if mode == "rightedge" {
							batches[i] = edge.batch(uniformInsertBatch)
						} else {
							batches[i] = gen.NextN(uniformInsertBatch)
						}
					}
					start := tree.HashedNodes()
					b.ResetTimer()
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := tree.InsertBatch(batches[i]); err != nil {
							b.Fatal(err)
						}
						if mode == "published" {
							tree.Prove(batches[i][0]) // a proof is cut from a view, which exposes the arrays
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(tree.HashedNodes()-start)/float64(b.N), "hashed-nodes/cycle")
				})
			}
		}
	}
}

// BenchmarkLayoutProve compares proof construction and size across layouts
// at the largest-CRL size: the forest pays one extra bucket-header hash and
// a short spine path, so both cost and encoded bytes must stay in the same
// ballpark as the sorted layout's single audit path.
func BenchmarkLayoutProve(b *testing.B) {
	for _, layout := range dictionary.Layouts() {
		b.Run(layout.String(), func(b *testing.B) {
			gen := serial.NewGenerator(0x9201, nil)
			tree := dictionary.NewTreeWithLayout(layout)
			if err := tree.InsertBatch(gen.NextN(workload.LargestCRLEntries)); err != nil {
				b.Fatal(err)
			}
			absent := gen.NextN(256)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tree.Prove(absent[i%len(absent)]) == nil {
					b.Fatal("nil proof")
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(tree.Prove(absent[0]).Encode())), "proof-bytes")
		})
		// The encode half of the hot path, isolated: with the pooled
		// encoder a steady-state Encode costs exactly one allocation
		// (the right-sized output copy) — allocs/op pins it.
		b.Run(layout.String()+"/encode", func(b *testing.B) {
			gen := serial.NewGenerator(0x9201, nil)
			tree := dictionary.NewTreeWithLayout(layout)
			if err := tree.InsertBatch(gen.NextN(workload.LargestCRLEntries)); err != nil {
				b.Fatal(err)
			}
			absent := gen.NextN(256)
			proofs := make([]*dictionary.Proof, len(absent))
			for i, s := range absent {
				proofs[i] = tree.Prove(s)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(proofs[i%len(proofs)].Encode()) == 0 {
					b.Fatal("empty encoding")
				}
			}
		})
	}
}
