package serial

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		in      []byte
		wantErr error
	}{
		{name: "single zero byte ok", in: []byte{0}},
		{name: "one byte", in: []byte{0x7f}},
		{name: "twenty bytes", in: bytes.Repeat([]byte{1}, 20)},
		{name: "empty", in: nil, wantErr: ErrEmpty},
		{name: "too long", in: bytes.Repeat([]byte{1}, 21), wantErr: ErrTooLong},
		{name: "leading zero", in: []byte{0, 1}, wantErr: ErrNotMinimal},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n, err := New(tt.in)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("New() err = %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("New() err = %v", err)
			}
			if !bytes.Equal(n.Bytes(), tt.in) {
				t.Errorf("Bytes() = %v, want %v", n.Bytes(), tt.in)
			}
		})
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []byte{1, 2, 3}
	n, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = 99
	if !bytes.Equal(n.Bytes(), []byte{1, 2, 3}) {
		t.Error("New did not copy its input")
	}
}

func TestFromUint64(t *testing.T) {
	tests := []struct {
		in   uint64
		want []byte
	}{
		{0, []byte{0}},
		{1, []byte{1}},
		{255, []byte{255}},
		{256, []byte{1, 0}},
		{0x73E10A5, []byte{0x07, 0x3E, 0x10, 0xA5}},
		{math.MaxUint64, bytes.Repeat([]byte{0xff}, 8)},
	}
	for _, tt := range tests {
		if got := FromUint64(tt.in).Bytes(); !bytes.Equal(got, tt.want) {
			t.Errorf("FromUint64(%d) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	n := FromUint64(0x73E10A5)
	got, err := Parse(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(n) {
		t.Errorf("Parse(String()) = %v, want %v", got, n)
	}
	if _, err := Parse("zz"); err == nil {
		t.Error("Parse of non-hex succeeded")
	}
}

func TestCompareMatchesNumericOrder(t *testing.T) {
	values := []uint64{0, 1, 2, 255, 256, 257, 65535, 65536, 1 << 40, math.MaxUint64}
	for i, a := range values {
		for j, b := range values {
			want := 0
			switch {
			case a < b:
				want = -1
			case a > b:
				want = 1
			}
			if got := FromUint64(a).Compare(FromUint64(b)); got != want {
				t.Errorf("Compare(%d, %d) = %d, want %d (idx %d,%d)", a, b, got, want, i, j)
			}
		}
	}
}

func TestSort(t *testing.T) {
	got := []Number{FromUint64(300), FromUint64(2), FromUint64(70000), FromUint64(1)}
	slices.SortFunc(got, Number.Compare)
	want := []uint64{1, 2, 300, 70000}
	for i, w := range want {
		if !got[i].Equal(FromUint64(w)) {
			t.Errorf("Sort[%d] = %v, want %d", i, got[i], w)
		}
	}
}

func TestGeneratorUniqueness(t *testing.T) {
	g := NewGenerator(1, nil)
	const n = 5000
	seen := make(map[string]struct{}, n)
	for i := 0; i < n; i++ {
		s := g.Next()
		key := string(s.Raw())
		if _, dup := seen[key]; dup {
			t.Fatalf("duplicate serial %v at draw %d", s, i)
		}
		seen[key] = struct{}{}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(42, nil).NextN(100)
	b := NewGenerator(42, nil).NextN(100)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := NewGenerator(43, nil).NextN(100)
	same := 0
	for i := range a {
		if a[i].Equal(c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical sequences")
	}
}

func TestGeneratorSizeDistribution(t *testing.T) {
	g := NewGenerator(7, nil)
	const n = 20000
	counts := make(map[int]int)
	for i := 0; i < n; i++ {
		counts[g.Next().Len()]++
	}
	// The paper reports a 3-byte mode covering 32 % of revocations. Allow a
	// generous tolerance; this checks the distribution, not the RNG.
	frac3 := float64(counts[3]) / n
	if frac3 < 0.28 || frac3 > 0.36 {
		t.Errorf("3-byte fraction = %.3f, want ≈0.32", frac3)
	}
	for size := range counts {
		if size < 1 || size > MaxLen {
			t.Errorf("generated serial of invalid size %d", size)
		}
	}
}

func TestPaperDistributionMean(t *testing.T) {
	var total, acc float64
	for _, sw := range PaperSizeDistribution() {
		total += sw.Weight
		acc += sw.Weight * float64(sw.Bytes)
	}
	if mean := acc / total; mean < 4 || mean > 10 {
		t.Errorf("mean serial size = %.2f bytes, outside plausible range", mean)
	}
}

// Property: all generated serials are valid canonical encodings.
func TestQuickGeneratedSerialsCanonical(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewGenerator(seed, nil)
		for i := 0; i < 50; i++ {
			s := g.Next()
			if _, err := New(s.Raw()); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Compare is a total order consistent with Sort.
func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(a, b, c uint64) bool {
		na, nb, nc := FromUint64(a), FromUint64(b), FromUint64(c)
		// Antisymmetry.
		if na.Compare(nb) != -nb.Compare(na) {
			return false
		}
		// Transitivity via sorting three elements.
		s := []Number{na, nb, nc}
		slices.SortFunc(s, Number.Compare)
		return !slices.IsSortedFunc(s, Number.Compare) == false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
