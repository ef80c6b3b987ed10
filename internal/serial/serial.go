// Package serial implements certificate serial numbers as used by RITM's
// authenticated dictionaries.
//
// Per RFC 5280 (and footnote 1 of the paper), a serial number is a positive
// integer assigned uniquely per CA and represented by at most 20 bytes. The
// dictionary sorts its leaves by serial number, so this package defines the
// canonical byte representation (minimal big-endian) and the total order
// used for sorting and for absence proofs.
package serial

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
)

// MaxLen is the maximum serial length in bytes (RFC 5280 §4.1.2.2).
const MaxLen = 20

// Errors returned by this package.
var (
	// ErrEmpty reports a zero-length serial.
	ErrEmpty = errors.New("serial: empty serial number")
	// ErrTooLong reports a serial longer than MaxLen bytes.
	ErrTooLong = errors.New("serial: longer than 20 bytes")
	// ErrNotMinimal reports a serial with a redundant leading zero byte.
	ErrNotMinimal = errors.New("serial: non-minimal encoding (leading zero)")
)

// Number is a certificate serial number in canonical form: a non-empty
// minimal big-endian byte string of at most MaxLen bytes. The zero value is
// not a valid Number; construct values with New, FromUint64, or Parse.
type Number struct {
	b []byte
}

// New validates b and returns it as a Number. The bytes are copied.
func New(b []byte) (Number, error) {
	if err := validate(b); err != nil {
		return Number{}, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return Number{b: out}, nil
}

// View validates b and returns it as a Number ALIASING b — no copy. The
// caller guarantees b is never modified for the Number's lifetime; it is
// the zero-copy decode path, where serials alias a pull body that outlives
// the apply.
func View(b []byte) (Number, error) {
	if err := validate(b); err != nil {
		return Number{}, err
	}
	return Number{b: b}, nil
}

func validate(b []byte) error {
	switch {
	case len(b) == 0:
		return ErrEmpty
	case len(b) > MaxLen:
		return fmt.Errorf("%w: %d bytes", ErrTooLong, len(b))
	case len(b) > 1 && b[0] == 0:
		return ErrNotMinimal
	}
	return nil
}

// FromUint64 returns the Number for a small integer. FromUint64(0) yields
// the one-byte serial 0x00, the smallest valid serial.
func FromUint64(v uint64) Number {
	if v == 0 {
		return Number{b: []byte{0}}
	}
	var buf [8]byte
	n := 0
	for shift := 56; shift >= 0; shift -= 8 {
		byteVal := byte(v >> shift)
		if n == 0 && byteVal == 0 {
			continue
		}
		buf[n] = byteVal
		n++
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	return Number{b: out}
}

// Parse decodes a hex string (as printed by String) into a Number.
func Parse(s string) (Number, error) {
	b, err := hex.DecodeString(s)
	if err != nil {
		return Number{}, fmt.Errorf("serial: parse %q: %w", s, err)
	}
	return New(b)
}

// IsZero reports whether n is the invalid zero value (no bytes).
func (n Number) IsZero() bool { return len(n.b) == 0 }

// Len returns the length of the canonical encoding in bytes.
func (n Number) Len() int { return len(n.b) }

// Bytes returns a copy of the canonical big-endian encoding.
func (n Number) Bytes() []byte {
	out := make([]byte, len(n.b))
	copy(out, n.b)
	return out
}

// Raw returns the canonical encoding without copying. Callers must not
// modify the result; it is used on hot paths (leaf hashing).
func (n Number) Raw() []byte { return n.b }

// String returns the lowercase hex encoding.
func (n Number) String() string { return hex.EncodeToString(n.b) }

// Compare returns -1, 0, or +1 as n is numerically less than, equal to, or
// greater than other. Because encodings are minimal big-endian, numeric
// order equals (length, bytes) lexicographic order; this is the order the
// dictionary sorts leaves by.
func (n Number) Compare(other Number) int {
	if d := len(n.b) - len(other.b); d != 0 {
		if d < 0 {
			return -1
		}
		return 1
	}
	return bytes.Compare(n.b, other.b)
}

// Equal reports whether two serials are identical.
func (n Number) Equal(other Number) bool { return n.Compare(other) == 0 }

// SizeDistribution describes how serial lengths are drawn by Generator.
// Weights need not sum to one; they are normalized. The paper's dataset has
// a 3-byte mode covering 32 % of all revocations (§VII-A).
type SizeDistribution []SizeWeight

// SizeWeight pairs a serial length in bytes with its relative weight.
type SizeWeight struct {
	Bytes  int
	Weight float64
}

// PaperSizeDistribution returns the serial-size distribution reported in
// §VII-A: mode at 3 bytes (32 %), with the remaining mass spread over the
// other common lengths observed in CRLs (small integers and 16–20-byte
// randomized serials).
func PaperSizeDistribution() SizeDistribution {
	return SizeDistribution{
		{Bytes: 1, Weight: 0.04},
		{Bytes: 2, Weight: 0.10},
		{Bytes: 3, Weight: 0.32},
		{Bytes: 4, Weight: 0.16},
		{Bytes: 8, Weight: 0.10},
		{Bytes: 16, Weight: 0.15},
		{Bytes: 19, Weight: 0.05},
		{Bytes: 20, Weight: 0.08},
	}
}

// Generator produces unique serial numbers with a configurable size
// distribution, deterministically from a seed. Each generator models one
// CA's serial space: serials are unique per generator.
type Generator struct {
	rng    *rand.Rand
	dist   SizeDistribution
	cum    []float64
	total  float64
	issued map[string]struct{}
}

// NewGenerator returns a deterministic generator. If dist is nil the
// paper's distribution is used.
func NewGenerator(seed uint64, dist SizeDistribution) *Generator {
	if dist == nil {
		dist = PaperSizeDistribution()
	}
	g := &Generator{
		rng:    rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		dist:   dist,
		cum:    make([]float64, len(dist)),
		issued: make(map[string]struct{}),
	}
	var acc float64
	for i, sw := range dist {
		acc += sw.Weight
		g.cum[i] = acc
	}
	g.total = acc
	return g
}

// Next returns a fresh serial number not returned before by this generator.
func (g *Generator) Next() Number {
	for {
		n := g.candidate()
		key := string(n.b)
		if _, dup := g.issued[key]; dup {
			continue
		}
		g.issued[key] = struct{}{}
		return n
	}
}

// NextN returns count fresh serial numbers.
func (g *Generator) NextN(count int) []Number {
	out := make([]Number, count)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func (g *Generator) candidate() Number {
	x := g.rng.Float64() * g.total
	size := g.dist[len(g.dist)-1].Bytes
	for i, c := range g.cum {
		if x < c {
			size = g.dist[i].Bytes
			break
		}
	}
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(g.rng.UintN(256))
	}
	// Enforce the minimal encoding: no leading zero unless single byte.
	if size > 1 && b[0] == 0 {
		b[0] = byte(1 + g.rng.UintN(255))
	}
	return Number{b: b}
}
