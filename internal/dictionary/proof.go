package dictionary

import (
	"fmt"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
	"ritm/internal/wire"
)

// ProofKind distinguishes the three shapes a dictionary proof can take.
type ProofKind uint8

// Proof kinds. Values are part of the wire format.
const (
	// ProofPresence proves the serial is revoked (it is a leaf).
	ProofPresence ProofKind = iota + 1
	// ProofAbsence proves the serial is not revoked, by exhibiting the
	// adjacent leaf or leaves that bracket it in sorted order.
	ProofAbsence
	// ProofAbsenceEmpty proves absence trivially: the dictionary is empty.
	ProofAbsenceEmpty
)

// maxProofPath bounds decoded audit-path lengths: a tree of 2⁶⁴ leaves,
// far beyond any real one.
const maxProofPath = 64

// String returns a human-readable kind name.
func (k ProofKind) String() string {
	switch k {
	case ProofPresence:
		return "presence"
	case ProofAbsence:
		return "absence"
	case ProofAbsenceEmpty:
		return "absence-empty"
	default:
		return fmt.Sprintf("ProofKind(%d)", uint8(k))
	}
}

// ProofLeaf is one leaf exhibited by a proof, together with the audit path
// that authenticates it against the signed root. The two leaves of a
// bracketing absence proof share one audit path, split between them as
// pairRoot describes; neither Path is then complete on its own.
type ProofLeaf struct {
	Serial serial.Number
	Num    uint64
	Index  uint64
	Path   []cryptoutil.Hash
}

// climb walks an audit path from position idx of a tree with size
// positions up to its root, consuming exactly the whole path. The promotion
// rule for odd rightmost nodes is reproduced from (index, size) alone.
func climb(h cryptoutil.Hash, idx, size uint64, path []cryptoutil.Hash) (cryptoutil.Hash, error) {
	pi := 0
	for size > 1 {
		if idx%2 == 0 {
			if idx+1 < size {
				if pi >= len(path) {
					return h, fmt.Errorf("%w: audit path too short", ErrBadProof)
				}
				h = cryptoutil.HashNode(h, path[pi])
				pi++
			}
			// Rightmost node of an odd level is promoted unchanged.
		} else {
			if pi >= len(path) {
				return h, fmt.Errorf("%w: audit path too short", ErrBadProof)
			}
			h = cryptoutil.HashNode(path[pi], h)
			pi++
		}
		idx /= 2
		size = (size + 1) / 2
	}
	if pi != len(path) {
		return h, fmt.Errorf("%w: audit path has %d extra elements", ErrBadProof, len(path)-pi)
	}
	return h, nil
}

// computeRoot recomputes the root the leaf's audit path leads to, for a
// tree of n leaves.
func (pl *ProofLeaf) computeRoot(n uint64) (cryptoutil.Hash, error) {
	if pl.Index >= n {
		return cryptoutil.Hash{}, fmt.Errorf("%w: leaf index %d outside tree of size %d", ErrBadProof, pl.Index, n)
	}
	h := Leaf{Serial: pl.Serial, Num: pl.Num}.hash()
	return climb(h, pl.Index, n, pl.Path)
}

// pairRoot recomputes the root of a tree of n leaves from the two adjacent
// leaves of a bracketing absence proof, which share one audit path: below
// the level where their climbs fork, l sits at an odd position and r at the
// even one after it, so l.Path opens with l's left siblings and r.Path is
// r's right siblings (none where r is promoted); at the fork the two are
// each other's sibling and nothing is transmitted; above it the rest of
// l.Path is the common path. The fork level and every promotion follow from
// (l.Index, n) alone and both paths are consumed exactly, as in climb.
func pairRoot(l, r *ProofLeaf, n uint64) (cryptoutil.Hash, error) {
	if r.Index != l.Index+1 || r.Index == 0 || r.Index >= n {
		return cryptoutil.Hash{}, fmt.Errorf("%w: absence leaves not adjacent in a tree of size %d (%d, %d)", ErrBadProof, n, l.Index, r.Index)
	}
	hl := Leaf{Serial: l.Serial, Num: l.Num}.hash()
	hr := Leaf{Serial: r.Serial, Num: r.Num}.hash()
	idx, size := l.Index, n
	lp, rp := l.Path, r.Path
	for ; idx%2 == 1; idx, size = idx/2, (size+1)/2 {
		if len(lp) == 0 {
			return hl, fmt.Errorf("%w: audit path too short", ErrBadProof)
		}
		hl, lp = cryptoutil.HashNode(lp[0], hl), lp[1:]
		if idx+2 < size {
			if len(rp) == 0 {
				return hr, fmt.Errorf("%w: audit path too short", ErrBadProof)
			}
			hr, rp = cryptoutil.HashNode(hr, rp[0]), rp[1:]
		}
		// Else r is the rightmost node of an odd level: promoted unchanged.
	}
	if len(rp) != 0 {
		return hl, fmt.Errorf("%w: audit path has %d extra elements", ErrBadProof, len(rp))
	}
	return climb(cryptoutil.HashNode(hl, hr), idx/2, (size+1)/2, lp)
}

// Proof is a presence or absence proof for one serial number against one
// version (root, n) of a dictionary. Proofs are produced by Tree.Prove and
// verified with Proof.Verify; they are sound against any prover, including
// a compromised RA or CDN (§V).
type Proof struct {
	Kind ProofKind
	// Left is the proven leaf for presence proofs, or the predecessor leaf
	// for absence proofs (nil when the serial precedes the whole tree).
	Left *ProofLeaf
	// Right is the successor leaf for absence proofs (nil when the serial
	// follows the whole tree), at Left.Index+1 when both are present. Unused
	// by presence proofs.
	Right *ProofLeaf
}

// Verify checks that the proof is a valid statement about s in the
// dictionary version committed to by (root, n). On success it returns
// revoked=true for a presence proof and revoked=false for an absence proof.
func (p *Proof) Verify(s serial.Number, root cryptoutil.Hash, n uint64) (revoked bool, err error) {
	if p.Kind == ProofAbsenceEmpty {
		if p.Left != nil || p.Right != nil {
			return false, fmt.Errorf("%w: malformed empty-tree proof", ErrBadProof)
		}
		if n != 0 || !root.Equal(EmptyRoot) {
			return false, fmt.Errorf("%w: empty-tree proof against non-empty dictionary", ErrBadProof)
		}
		return false, nil
	}
	h, err := p.runRoot(s, n)
	if err != nil {
		return false, err
	}
	if !h.Equal(root) {
		return false, fmt.Errorf("%w: audit path does not reach root", ErrBadProof)
	}
	return p.Kind == ProofPresence, nil
}

// runRoot checks the exhibited leaves against s and recomputes the root of
// the tree of size leaves they sit in.
func (p *Proof) runRoot(s serial.Number, size uint64) (cryptoutil.Hash, error) {
	l, r := p.Left, p.Right
	switch {
	case p.Kind == ProofPresence:
		if l == nil || r != nil {
			return cryptoutil.Hash{}, fmt.Errorf("%w: malformed presence proof", ErrBadProof)
		}
		if !l.Serial.Equal(s) {
			return cryptoutil.Hash{}, fmt.Errorf("%w: presence proof is for serial %v, not %v", ErrBadProof, l.Serial, s)
		}
		return l.computeRoot(size)

	case p.Kind != ProofAbsence:
		return cryptoutil.Hash{}, fmt.Errorf("%w: unknown proof kind %d", ErrBadProof, p.Kind)

	case l == nil && r == nil:
		return cryptoutil.Hash{}, fmt.Errorf("%w: absence proof with no leaves", ErrBadProof)

	case l == nil:
		// s precedes the entire tree: Right must be its first leaf.
		if r.Index != 0 {
			return cryptoutil.Hash{}, fmt.Errorf("%w: left-boundary proof not anchored at index 0", ErrBadProof)
		}
		if s.Compare(r.Serial) >= 0 {
			return cryptoutil.Hash{}, fmt.Errorf("%w: serial %v not below first leaf %v", ErrBadProof, s, r.Serial)
		}
		return r.computeRoot(size)

	case r == nil:
		// s follows the entire tree: Left must be its last leaf.
		if l.Index+1 != size {
			return cryptoutil.Hash{}, fmt.Errorf("%w: right-boundary proof not anchored at the last leaf", ErrBadProof)
		}
		if s.Compare(l.Serial) <= 0 {
			return cryptoutil.Hash{}, fmt.Errorf("%w: serial %v not above last leaf %v", ErrBadProof, s, l.Serial)
		}
		return l.computeRoot(size)

	default:
		// s falls strictly between two leaves that must be adjacent.
		if l.Serial.Compare(s) >= 0 || s.Compare(r.Serial) >= 0 {
			return cryptoutil.Hash{}, fmt.Errorf("%w: serial %v not bracketed by (%v, %v)", ErrBadProof, s, l.Serial, r.Serial)
		}
		return pairRoot(l, r, size)
	}
}

// Encode serializes the proof.
func (p *Proof) Encode() []byte {
	e := wire.PooledEncoder()
	p.encodeTo(e)
	return e.Finish()
}

func (p *Proof) encodeTo(e *wire.Encoder) {
	e.Uint8(uint8(p.Kind))
	encodeProofLeaf(e, p.Left, true)
	// A bracketing Right sits at Left.Index+1: its index is not transmitted.
	encodeProofLeaf(e, p.Right, p.Left == nil)
}

func encodeProofLeaf(e *wire.Encoder, pl *ProofLeaf, withIndex bool) {
	if pl == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.BytesField(pl.Serial.Raw())
	e.Uvarint(pl.Num)
	if withIndex {
		e.Uvarint(pl.Index)
	}
	encodePath(e, pl.Path)
}

func encodePath(e *wire.Encoder, path []cryptoutil.Hash) {
	e.Uvarint(uint64(len(path)))
	for _, h := range path {
		e.Raw(h[:])
	}
}

// DecodeProof parses a proof encoded by Encode. Only shapes Verify could
// accept decode: a presence proof has exactly its Left leaf, an absence
// proof at least one leaf, an empty-dictionary proof none; anything else —
// unknown kinds included — is ErrBadProof here, not first at a Verify the
// caller might skip. That refuses the retired forest layout's proofs, whose
// kind byte carries 0x80, and the two-path absence encoding of earlier
// versions (it misparses, or fails Verify's exact path consumption).
func DecodeProof(buf []byte) (*Proof, error) {
	d := wire.NewDecoder(buf)
	p, err := decodeProofFrom(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("decode proof: %w", err)
	}
	return p, nil
}

// proofDecoder is proofArena's mirror on the verifying side: one block holds
// the decoded Proof, its leaves and the bytes of their serials, and one array
// backs both audit paths — two allocations per proof, nothing aliasing the
// input.
type proofDecoder struct {
	proof   Proof
	leaves  [2]ProofLeaf
	serials [2 * serial.MaxLen]byte
	used    int // bytes of serials taken
}

func decodeProofFrom(d *wire.Decoder) (*Proof, error) {
	a := &proofDecoder{}
	p := &a.proof
	p.Kind = ProofKind(d.Uint8())
	var raw [2][]byte // the audit paths as encoded: left, right
	var err error
	if d.Bool() {
		p.Left = &a.leaves[0]
		if raw[0], err = a.leaf(d, p.Left, true); err != nil {
			return nil, err
		}
	}
	if d.Bool() {
		p.Right = &a.leaves[1]
		if raw[1], err = a.leaf(d, p.Right, p.Left == nil); err != nil {
			return nil, err
		}
		if p.Left != nil {
			p.Right.Index = p.Left.Index + 1
		}
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("decode proof: %w", d.Err())
	}
	switch {
	case p.Kind == ProofPresence && p.Left != nil && p.Right == nil:
	case p.Kind == ProofAbsence && (p.Left != nil || p.Right != nil):
	case p.Kind == ProofAbsenceEmpty && p.Left == nil && p.Right == nil:
	default:
		return nil, fmt.Errorf("%w: %v proof of impossible shape", ErrBadProof, p.Kind)
	}
	backing := make([]cryptoutil.Hash, (len(raw[0])+len(raw[1]))/cryptoutil.HashSize)
	a.leaves[0].Path, backing = cutPath(raw[0], backing)
	a.leaves[1].Path, _ = cutPath(raw[1], backing)
	return p, nil
}

// cutPath copies an encoded audit path into the front of backing and returns
// it, capped, with the rest of backing.
func cutPath(raw []byte, backing []cryptoutil.Hash) (path, rest []cryptoutil.Hash) {
	n := len(raw) / cryptoutil.HashSize
	path = backing[:n:n]
	for i := range path {
		copy(path[i][:], raw[i*cryptoutil.HashSize:])
	}
	return path, backing[n:]
}

// number reads one serial into the arena's serial bytes.
func (a *proofDecoder) number(d *wire.Decoder) (serial.Number, error) {
	b := d.BytesField()
	if len(b) > serial.MaxLen {
		return serial.Number{}, serial.ErrTooLong
	}
	own := a.serials[a.used : a.used+len(b) : a.used+len(b)]
	a.used += copy(own, b)
	return serial.View(own)
}

// decodeRawPath reads a length-prefixed audit path, still aliasing the input.
func decodeRawPath(d *wire.Decoder) ([]byte, error) {
	n := d.Uvarint()
	if d.Err() == nil && n > maxProofPath {
		return nil, fmt.Errorf("%w: audit path of %d elements", ErrBadProof, n)
	}
	raw := d.Raw(int(n) * cryptoutil.HashSize)
	if d.Err() != nil {
		return nil, fmt.Errorf("decode proof path: %w", d.Err())
	}
	return raw, nil
}

func (a *proofDecoder) leaf(d *wire.Decoder, pl *ProofLeaf, withIndex bool) (rawPath []byte, err error) {
	if pl.Serial, err = a.number(d); err != nil {
		return nil, fmt.Errorf("decode proof leaf serial: %w", err)
	}
	pl.Num = d.Uvarint()
	if withIndex {
		pl.Index = d.Uvarint()
	}
	return decodeRawPath(d)
}
