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

// proofSpineFlag marks, on the encoded kind byte, that a SpineSegment
// follows the leaves: the proof comes from a forest-layout dictionary.
const proofSpineFlag = 0x80

// maxProofPath bounds decoded audit-path lengths: a structure of 2⁶⁴
// positions, far beyond any real tree or spine.
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
// that authenticates it against the signed root (for the sorted layout) or
// against its bucket's root (for the forest layout). The two leaves of a
// bracketing absence proof share one audit path, split between them as
// pairRoot describes; neither Path is then complete on its own.
type ProofLeaf struct {
	Serial serial.Number
	Num    uint64
	Index  uint64
	Path   []cryptoutil.Hash
}

// climb walks an audit path from position idx of a structure with size
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

// computeRoot recomputes the root the leaf's audit path leads to, for a run
// of n leaves: the whole tree, or one forest bucket.
func (pl *ProofLeaf) computeRoot(n uint64) (cryptoutil.Hash, error) {
	if pl.Index >= n {
		return cryptoutil.Hash{}, fmt.Errorf("%w: leaf index %d outside tree of size %d", ErrBadProof, pl.Index, n)
	}
	h := Leaf{Serial: pl.Serial, Num: pl.Num}.hash()
	return climb(h, pl.Index, n, pl.Path)
}

// pairRoot recomputes the root of a run of n leaves from the two adjacent
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

// SpineSegment extends a proof produced by a forest-layout dictionary
// (LayoutForest): it authenticates the bucket the exhibited leaves live in.
// The verifier recomputes the bucket root from the leaf audit paths, binds
// it to the committed bucket header (range bounds and leaf count), climbs
// the spine path, and compares the forest root against the signed root.
//
// The committed range [Lo, Hi) is what keeps absence proofs sound with
// bucket-local neighbors: buckets tile the serial space disjointly, so a
// serial inside this bucket's range cannot be a leaf of any other bucket.
type SpineSegment struct {
	// BucketIndex is the bucket's position among NumBuckets spine leaves.
	BucketIndex uint64
	// NumBuckets is the total bucket count committed by the forest root.
	NumBuckets uint64
	// LeafCount is the number of leaves in this bucket.
	LeafCount uint64
	// Lo and Hi bound the bucket's serial range [Lo, Hi); a zero Number
	// means unbounded on that side.
	Lo, Hi serial.Number
	// Path is the spine audit path from the bucket commitment to the spine
	// root.
	Path []cryptoutil.Hash
}

// contains reports whether s falls in the bucket's committed range.
func (sp *SpineSegment) contains(s serial.Number) bool {
	if !sp.Lo.IsZero() && sp.Lo.Compare(s) > 0 {
		return false
	}
	if !sp.Hi.IsZero() && s.Compare(sp.Hi) >= 0 {
		return false
	}
	return true
}

// Proof is a presence or absence proof for one serial number against one
// version (root, n) of a dictionary. Proofs are produced by Tree.Prove and
// verified with Proof.Verify; they are sound against any prover, including
// a compromised RA or CDN (§V).
type Proof struct {
	Kind ProofKind
	// Left is the proven leaf for presence proofs, or the predecessor leaf
	// for absence proofs (nil when the serial precedes the whole tree — or,
	// with a spine segment, its whole bucket).
	Left *ProofLeaf
	// Right is the successor leaf for absence proofs (nil when the serial
	// follows the whole tree or bucket), at Left.Index+1 when both are
	// present. Unused by presence proofs.
	Right *ProofLeaf
	// Spine is present exactly when the proof comes from a forest-layout
	// dictionary; leaf indices and paths are then bucket-local.
	Spine *SpineSegment
}

// Verify checks that the proof is a valid statement about s in the
// dictionary version committed to by (root, n). On success it returns
// revoked=true for a presence proof and revoked=false for an absence proof.
// Proofs carrying a SpineSegment verify against forest-layout roots; plain
// proofs against sorted-layout roots — the layouts' root constructions are
// domain-separated, so a proof can never verify against the other layout's
// root.
func (p *Proof) Verify(s serial.Number, root cryptoutil.Hash, n uint64) (revoked bool, err error) {
	sp := p.Spine
	if p.Kind == ProofAbsenceEmpty {
		if p.Left != nil || p.Right != nil || sp != nil {
			return false, fmt.Errorf("%w: malformed empty-tree proof", ErrBadProof)
		}
		if n != 0 || !root.Equal(EmptyRoot) {
			return false, fmt.Errorf("%w: empty-tree proof against non-empty dictionary", ErrBadProof)
		}
		return false, nil
	}
	// The exhibited leaves authenticate the root of the run they sit in: the
	// whole tree, or — under a spine segment — one bucket, whose header binds
	// that root to the committed range and count before the spine path
	// authenticates the bucket against the forest root.
	size := n
	if sp != nil {
		if n == 0 || sp.NumBuckets == 0 || sp.LeafCount == 0 ||
			sp.BucketIndex >= sp.NumBuckets || sp.LeafCount > n || sp.NumBuckets > n {
			return false, fmt.Errorf("%w: malformed spine segment", ErrBadProof)
		}
		// The range check is what makes a bucket-local absence proof a
		// global one: s belongs to this bucket and no other.
		if p.Kind == ProofAbsence && !sp.contains(s) {
			return false, fmt.Errorf("%w: serial %v outside the proof bucket's range", ErrBadProof, s)
		}
		size = sp.LeafCount
	}
	h, err := p.runRoot(s, size)
	if err != nil {
		return false, err
	}
	if sp != nil {
		node := cryptoutil.HashBucket(sp.Lo.Raw(), sp.Hi.Raw(), sp.LeafCount, h)
		if h, err = climb(node, sp.BucketIndex, sp.NumBuckets, sp.Path); err != nil {
			return false, err
		}
		h = cryptoutil.HashForestRoot(sp.NumBuckets, h)
	}
	if !h.Equal(root) {
		return false, fmt.Errorf("%w: audit path does not reach root", ErrBadProof)
	}
	return p.Kind == ProofPresence, nil
}

// runRoot checks the exhibited leaves against s and recomputes the root of
// the run of size leaves they sit in.
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
		// s precedes the entire run: Right must be its first leaf.
		if r.Index != 0 {
			return cryptoutil.Hash{}, fmt.Errorf("%w: left-boundary proof not anchored at index 0", ErrBadProof)
		}
		if s.Compare(r.Serial) >= 0 {
			return cryptoutil.Hash{}, fmt.Errorf("%w: serial %v not below first leaf %v", ErrBadProof, s, r.Serial)
		}
		return r.computeRoot(size)

	case r == nil:
		// s follows the entire run: Left must be its last leaf.
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

// Size returns the encoded size of the proof in bytes. The paper reports a
// 500–900 byte status for the largest CRL observed (§VII-D: 339,557
// entries); there, with 16-byte serials, a sorted proof averages 400 B for
// presence and 423 B for absence, a forest proof 436 and 458 B, and the
// signed root and freshness value add 149 B to make the status.
func (p *Proof) Size() int { return len(p.Encode()) }

// Encode serializes the proof.
func (p *Proof) Encode() []byte {
	e := wire.PooledEncoder()
	p.encodeTo(e)
	return e.Finish()
}

func (p *Proof) encodeTo(e *wire.Encoder) {
	k := uint8(p.Kind)
	if p.Spine != nil {
		k |= proofSpineFlag
	}
	e.Uint8(k)
	encodeProofLeaf(e, p.Left, true)
	// A bracketing Right sits at Left.Index+1: its index is not transmitted.
	encodeProofLeaf(e, p.Right, p.Left == nil)
	if p.Spine != nil {
		encodeSpineSegment(e, p.Spine)
	}
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

func encodeSpineSegment(e *wire.Encoder, sp *SpineSegment) {
	e.BytesField(sp.Lo.Raw()) // zero serial encodes as empty = unbounded
	e.BytesField(sp.Hi.Raw())
	e.Uvarint(sp.BucketIndex)
	e.Uvarint(sp.NumBuckets)
	e.Uvarint(sp.LeafCount)
	encodePath(e, sp.Path)
}

func encodePath(e *wire.Encoder, path []cryptoutil.Hash) {
	e.Uvarint(uint64(len(path)))
	for _, h := range path {
		e.Raw(h[:])
	}
}

// DecodeProof parses a proof encoded by Encode. Only shapes Verify could
// accept decode: a presence proof has exactly its Left leaf, an absence
// proof at least one leaf, an empty-dictionary proof neither leaves nor
// spine; anything else — unknown kinds included — is ErrBadProof here, not
// first at a Verify the caller might skip. The two-path absence encoding of
// earlier versions is refused (it misparses, or fails Verify's exact path
// consumption).
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
// the decoded Proof, its leaves, its spine segment and the bytes of their (at
// most four) serials, and one array backs every audit path — two allocations
// per proof, nothing aliasing the input.
type proofDecoder struct {
	proof   Proof
	leaves  [2]ProofLeaf
	spine   SpineSegment
	serials [4 * serial.MaxLen]byte
	used    int // bytes of serials taken
}

func decodeProofFrom(d *wire.Decoder) (*Proof, error) {
	a := &proofDecoder{}
	p := &a.proof
	k := d.Uint8()
	p.Kind = ProofKind(k &^ proofSpineFlag)
	var raw [3][]byte // the audit paths as encoded: left, right, spine
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
	if k&proofSpineFlag != 0 {
		p.Spine = &a.spine
		if raw[2], err = a.spineSegment(d); err != nil {
			return nil, err
		}
	}
	if d.Err() != nil {
		return nil, fmt.Errorf("decode proof: %w", d.Err())
	}
	switch {
	case p.Kind == ProofPresence && p.Left != nil && p.Right == nil:
	case p.Kind == ProofAbsence && (p.Left != nil || p.Right != nil):
	case p.Kind == ProofAbsenceEmpty && p.Left == nil && p.Right == nil && p.Spine == nil:
	default:
		return nil, fmt.Errorf("%w: %v proof of impossible shape", ErrBadProof, p.Kind)
	}
	backing := make([]cryptoutil.Hash, (len(raw[0])+len(raw[1])+len(raw[2]))/cryptoutil.HashSize)
	a.leaves[0].Path, backing = cutPath(raw[0], backing)
	a.leaves[1].Path, backing = cutPath(raw[1], backing)
	a.spine.Path, _ = cutPath(raw[2], backing)
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

// number reads one serial into the arena's serial bytes. An empty optional
// field is the zero Number: an unbounded bucket bound.
func (a *proofDecoder) number(d *wire.Decoder, optional bool) (serial.Number, error) {
	b := d.BytesField()
	if len(b) == 0 && optional {
		return serial.Number{}, nil
	}
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
	if pl.Serial, err = a.number(d, false); err != nil {
		return nil, fmt.Errorf("decode proof leaf serial: %w", err)
	}
	pl.Num = d.Uvarint()
	if withIndex {
		pl.Index = d.Uvarint()
	}
	return decodeRawPath(d)
}

func (a *proofDecoder) spineSegment(d *wire.Decoder) (rawPath []byte, err error) {
	sp := &a.spine
	if sp.Lo, err = a.number(d, true); err != nil {
		return nil, fmt.Errorf("decode spine lower bound: %w", err)
	}
	if sp.Hi, err = a.number(d, true); err != nil {
		return nil, fmt.Errorf("decode spine upper bound: %w", err)
	}
	sp.BucketIndex = d.Uvarint()
	sp.NumBuckets = d.Uvarint()
	sp.LeafCount = d.Uvarint()
	return decodeRawPath(d)
}
