package dictionary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ritm/internal/cryptoutil"
	"ritm/internal/serial"
)

// Checkpoint format v2, the only checkpoint format: an offset-indexed
// encoding of one dictionary's committed state that is traversable WITHOUT
// deserialization. It persists the commitment structure itself (not just
// the issuance log, which would make recovery replay it — O(n) hashing) in
// fixed-width, offset-computable records — the very byte layout a run keeps
// in memory (run.go) — so that:
//
//   - encoding is one memmove per section (per level, for hash levels) plus
//     the CRCs, with nothing converted;
//   - a restart keeps the checkpoint buffer as the tree it serves and
//     inserts into (map-don't-replay), copying and rehashing nothing, and
//   - a co-located reader (OpenMappedReplica) serves Prove/Status straight
//     off the mapped bytes: a leaf lookup and an inclusion/absence path are
//     each O(log n) arithmetic over []byte, with zero per-process heap for
//     the dictionary.
//
// Layout. The payload opens with an 8-byte magic, a section count, and a
// fixed-width section table; every section is CRC-framed and starts at an
// 8-byte-aligned offset. All fixed-width fields in v2 are LITTLE-endian —
// deliberately unlike the big-endian wire formats: these bytes are read in
// place on the serving path, and every deployment target is little-endian,
// so reads compile to plain loads. (The wire formats cross trust
// boundaries and stay big-endian; nothing here is wire.)
//
//	magic "RITMDV2\x00"
//	sectionCount u32 | reserved u32
//	sectionCount × { id u32, crc32(section) u32, offset u64, length u64 }
//	...sections, each 8-byte aligned...
//
// Sections (ids below; 4–6 held the retired forest layout's bucket
// directory, bucket levels and spine, and are never reused):
//
//	header       layout u32 (0, sorted) | flags u32 | count u64
//	leaves       count × 32 B { num u64, serialLen u8, pad[3], serial[20] },
//	             sorted ascending by serial; num inverts to the issuance log
//	levels       every level, level 0 (leaf hashes) first, ceil-halved up to
//	             the root — sizes derivable from count
//	batches      nBatches × u64, the cumulative insertion-batch bounds
//	root         treeRoot[20] | freshness[20] | hasRoot u8 | hasSeed u8 |
//	             pad[2] | rootLen u32 | SignedRoot.Encode() | seed[20]?
//
// Trust. v2 restores do NOT re-verify the whole structure by rehashing —
// that would be the O(n) work the format exists to avoid. The reader
// verifies the embedded SignedRoot's signature against the trust anchor,
// checks the structural root recorded by the file (the top of the stored
// hash arrays) against the signed root, and CRC-checks every section; the
// interior arrays are then trusted as-is. This is sound for the RA's
// serving role: RAs are untrusted provers (§V), every emitted proof is
// verified by the client against the CA signature, so bytes that are
// CRC-valid but wrong can only produce proofs that FAIL client
// verification — a self-advertising outage, never an accepted forgery.
// The CA-side restore path keeps full replay verification (see
// RestoreAuthority), as does a follower adopting a leader's snapshot; only
// a replica's own restart and mapped readers trust the arrays this way.

// stateV2Magic opens every checkpoint payload. The first byte ('R') is
// distinct from a WAL record's leading bool byte (0x00/0x01) and from the
// retired v1 encoding's version byte 0x01.
var stateV2Magic = []byte("RITMDV2\x00")

// v2 section identifiers.
const (
	v2SecHeader  = 1
	v2SecLeaves  = 2
	v2SecLevels  = 3
	v2SecBatches = 7
	v2SecRoot    = 8
)

// Fixed record sizes of the v2 format.
const (
	v2LeafRecSize = 32
	v2TableEntry  = 24
	v2HeaderLen   = 16 // magic + count + reserved
)

// ErrBadCheckpoint reports a checkpoint payload that is not in format v2
// or fails structural validation (framing, CRC, ordering), or that commits
// a layout other than the sorted tree. Callers treat it like any other
// corruption: refuse loudly, never degrade silently — and never read it as
// empty state.
var ErrBadCheckpoint = errors.New("dictionary: malformed v2 checkpoint")

// IsStateV2 reports whether buf begins with the v2 checkpoint magic.
func IsStateV2(buf []byte) bool {
	return len(buf) >= len(stateV2Magic) && bytes.Equal(buf[:len(stateV2Magic)], stateV2Magic)
}

// totalLevelNodes returns the total node count over all levels of a tree
// with n leaves (level 0 included): n, ⌈n/2⌉, …, 1 — the shape contract
// shared with buildLevels, which is what lets a reader cut every level out
// of a section from the leaf count alone (splitLevels).
func totalLevelNodes(n int) int {
	total := 0
	for width := n; width > 0; width = (width + 1) / 2 {
		total += width
		if width == 1 {
			break
		}
	}
	return total
}

// splitLevels returns one capacity-capped slice per level of a section that
// stores the levels of a tree over n ≥ 1 leaves, level 0 first, up to the
// single root.
func splitLevels(section []byte, n int) [][]byte {
	var levels [][]byte
	for width := n; ; width = (width + 1) / 2 {
		size := width * cryptoutil.HashSize
		levels = append(levels, section[:size:size])
		if section = section[size:]; width == 1 {
			return levels
		}
	}
}

func align8(n int) int { return (n + 7) &^ 7 }

// v2Section is one section to lay out: its encoded size, known up front,
// and the function that writes it into its place in the payload.
type v2Section struct {
	id   uint32
	size int
	fill func(dst []byte)
}

// encodeV2Sections assembles the payload: magic, table, and 8-byte-aligned
// CRC-framed sections. The payload is allocated once, at its final size, and
// every section is written and checksummed where it lies — a checkpoint is
// the dictionary's whole image, tens of megabytes per ∆ on every writer, and
// is not staged through per-section buffers.
func encodeV2Sections(secs []v2Section) []byte {
	le := binary.LittleEndian
	off := v2HeaderLen + v2TableEntry*len(secs)
	offs := make([]int, len(secs))
	for i, s := range secs {
		off = align8(off)
		offs[i] = off
		off += s.size
	}
	buf := make([]byte, align8(off))
	copy(buf, stateV2Magic)
	le.PutUint32(buf[8:], uint32(len(secs)))
	for i, s := range secs {
		data := buf[offs[i] : offs[i]+s.size]
		s.fill(data)
		e := v2HeaderLen + v2TableEntry*i
		le.PutUint32(buf[e:], s.id)
		le.PutUint32(buf[e+4:], crc32.ChecksumIEEE(data))
		le.PutUint64(buf[e+8:], uint64(offs[i]))
		le.PutUint64(buf[e+16:], uint64(s.size))
	}
	return buf
}

// putBytes copies byte runs — records or hash levels, in the layout the
// section stores them in already — back to back into dst, one memmove each,
// and returns the bytes written.
func putBytes(dst []byte, runs ...[]byte) int {
	n := 0
	for _, r := range runs {
		n += copy(dst[n:], r)
	}
	return n
}

// encodeRootSection writes the root/freshness/seed section.
func encodeRootSection(treeRoot, freshness cryptoutil.Hash, root *SignedRoot, seed *cryptoutil.Hash) []byte {
	var rootBytes []byte
	if root != nil {
		rootBytes = root.Encode()
	}
	buf := make([]byte, 48, 48+len(rootBytes)+cryptoutil.HashSize)
	copy(buf, treeRoot[:])
	copy(buf[20:], freshness[:])
	if root != nil {
		buf[40] = 1
	}
	if seed != nil {
		buf[41] = 1
	}
	binary.LittleEndian.PutUint32(buf[44:], uint32(len(rootBytes)))
	buf = append(buf, rootBytes...)
	if seed != nil {
		buf = append(buf, seed[:]...)
	}
	return buf
}

// encodeStateV2 serializes one committed dictionary version in checkpoint
// format v2. v must be the frozen run the other arguments are consistent
// with (same publication).
func encodeStateV2(v run, bounds []uint64, root *SignedRoot, freshness cryptoutil.Hash, seed *cryptoutil.Hash) []byte {
	le := binary.LittleEndian
	count := v.count()
	rootSec := encodeRootSection(v.root(), freshness, root, seed)
	return encodeV2Sections([]v2Section{
		// The layout field stays 0, the sorted tree.
		{v2SecHeader, 16, func(dst []byte) { le.PutUint64(dst[8:], uint64(count)) }},
		{v2SecLeaves, len(v.recs), func(dst []byte) { copy(dst, v.recs) }},
		{v2SecLevels, totalLevelNodes(count) * cryptoutil.HashSize, func(dst []byte) { putBytes(dst, v.levels...) }},
		{v2SecBatches, len(bounds) * 8, func(dst []byte) {
			for i, b := range bounds {
				le.PutUint64(dst[i*8:], b)
			}
		}},
		{v2SecRoot, len(rootSec), func(dst []byte) { copy(dst, rootSec) }},
	})
}

// PersistentStateV2 exports the replica's current committed state encoded
// in checkpoint format v2. Like PersistentState it reads one published
// snapshot, so log, root, and freshness are mutually consistent; it
// persists the commitment structure itself, making the checkpoint
// mappable (OpenMappedReplica) and the restart replay-free.
func (r *Replica) PersistentStateV2() []byte {
	snap := r.Snapshot()
	return encodeStateV2(snap.view, snap.bounds, snap.root, snap.freshness, nil)
}

// PersistentStateV2 exports the authority's committed state — structure,
// signed root, and chain seed — encoded in checkpoint format v2.
func (a *Authority) PersistentStateV2() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	seed := a.chain.Seed()
	return encodeStateV2(a.tree.view(), a.tree.bounds, a.root, cryptoutil.Hash{}, &seed)
}

// MappedState is a validated, zero-copy view of one v2 checkpoint payload.
// Every accessor is pointer arithmetic over the underlying buffer; nothing
// is deserialized up front except the (small) signed-root section. The
// buffer typically aliases an mmap'd file —
// the caller owns its lifetime and must keep it valid for the life of the
// MappedState and everything derived from it.
type MappedState struct {
	count int

	leaves []byte // section 2: count × 32 B records
	levels []byte // section 3: every hash level
	bounds []byte // section 7: nBatches × u64

	treeRoot  cryptoutil.Hash
	freshness cryptoutil.Hash
	root      *SignedRoot
	seed      *cryptoutil.Hash
}

// Count returns the number of revocations in the checkpoint.
func (st *MappedState) Count() uint64 { return uint64(st.count) }

// Root returns the embedded signed root (nil for a never-published
// dictionary). The caller must verify its signature before serving.
func (st *MappedState) Root() *SignedRoot { return st.root }

// RootHash returns the structural root recorded by the checkpoint.
func (st *MappedState) RootHash() cryptoutil.Hash { return st.treeRoot }

// Freshness returns the recorded freshness-statement value.
func (st *MappedState) Freshness() cryptoutil.Hash { return st.freshness }

// ChainSeed returns the recorded authority chain seed, nil on
// replica-side checkpoints.
func (st *MappedState) ChainSeed() *cryptoutil.Hash { return st.seed }

// batches materializes the insertion-batch bounds.
func (st *MappedState) batches() []uint64 {
	n := len(st.bounds) / 8
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(st.bounds[i*8:])
	}
	return out
}

// run returns the whole dictionary as one run, its sections read in place.
func (st *MappedState) run() run {
	if st.count == 0 {
		return run{}
	}
	return run{recs: st.leaves, levels: splitLevels(st.levels, st.count)}
}

// sectionTable maps section ids to payload slices after bounds and CRC
// validation.
func sectionTable(buf []byte) (map[uint32][]byte, error) {
	if !IsStateV2(buf) {
		return nil, fmt.Errorf("%w: payload does not open with the format-v2 magic (v1 checkpoints are no longer read: wipe the store, or open it once with a build that still migrates them)", ErrBadCheckpoint)
	}
	le := binary.LittleEndian
	if len(buf) < v2HeaderLen {
		return nil, fmt.Errorf("%w: truncated header", ErrBadCheckpoint)
	}
	n := int(le.Uint32(buf[8:]))
	const maxSections = 64
	if n > maxSections || v2HeaderLen+n*v2TableEntry > len(buf) {
		return nil, fmt.Errorf("%w: section table of %d entries", ErrBadCheckpoint, n)
	}
	secs := make(map[uint32][]byte, n)
	for i := 0; i < n; i++ {
		e := buf[v2HeaderLen+i*v2TableEntry:]
		id := le.Uint32(e)
		crc := le.Uint32(e[4:])
		off := le.Uint64(e[8:])
		length := le.Uint64(e[16:])
		if off%8 != 0 || off > uint64(len(buf)) || length > uint64(len(buf))-off {
			return nil, fmt.Errorf("%w: section %d out of bounds", ErrBadCheckpoint, id)
		}
		data := buf[off : off+length]
		if crc32.ChecksumIEEE(data) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrBadCheckpoint, id)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrBadCheckpoint, id)
		}
		secs[id] = data
	}
	return secs, nil
}

// OpenMappedState validates a v2 checkpoint payload and returns its
// zero-copy view. Validation is structural — framing, section CRCs, leaf
// ordering, and the recorded root's consistency with the stored top-level
// hash — and deliberately NOT a rehash of the interior (see the package
// trust note above). buf is retained; it must stay valid (and unmodified)
// for the life of the result.
func OpenMappedState(buf []byte) (*MappedState, error) {
	secs, err := sectionTable(buf)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian

	header, ok := secs[v2SecHeader]
	if !ok || len(header) != 16 {
		return nil, fmt.Errorf("%w: missing or misshapen header section", ErrBadCheckpoint)
	}
	if layout := le.Uint32(header); layout != 0 {
		return nil, fmt.Errorf("%w: layout %d is not the sorted tree (1 was the retired forest layout); wipe the data dir", ErrBadCheckpoint, layout)
	}
	st := &MappedState{}
	count := le.Uint64(header[8:])
	const maxLog = 1 << 28
	if count > maxLog {
		return nil, fmt.Errorf("%w: %d leaves exceeds limit", ErrBadCheckpoint, count)
	}
	st.count = int(count)

	st.leaves, ok = secs[v2SecLeaves]
	if !ok || len(st.leaves) != st.count*v2LeafRecSize {
		return nil, fmt.Errorf("%w: leaf section holds %d bytes, want %d", ErrBadCheckpoint, len(st.leaves), st.count*v2LeafRecSize)
	}
	// One linear pass over the leaf records: canonical serials, strict
	// ascending order, revocation numbers in range. Byte compares only —
	// no hashing, no allocation.
	var prev []byte
	for i := 0; i < st.count; i++ {
		rec := st.leaves[i*v2LeafRecSize:]
		sl := int(rec[8])
		if sl < 1 || sl > serial.MaxLen || (sl > 1 && rec[12] == 0) {
			return nil, fmt.Errorf("%w: leaf %d has invalid serial", ErrBadCheckpoint, i)
		}
		raw := rec[12 : 12+sl]
		if prev != nil && compareRaw(prev, raw) >= 0 {
			return nil, fmt.Errorf("%w: leaves not strictly sorted at %d", ErrBadCheckpoint, i)
		}
		prev = raw
		if num := le.Uint64(rec); num < 1 || num > count {
			return nil, fmt.Errorf("%w: leaf %d revocation number %d outside [1,%d]", ErrBadCheckpoint, i, num, count)
		}
	}

	st.levels, ok = secs[v2SecLevels]
	if !ok || len(st.levels) != totalLevelNodes(st.count)*cryptoutil.HashSize {
		return nil, fmt.Errorf("%w: levels section holds %d bytes, want %d", ErrBadCheckpoint, len(st.levels), totalLevelNodes(st.count)*cryptoutil.HashSize)
	}

	st.bounds, ok = secs[v2SecBatches]
	if !ok || len(st.bounds)%8 != 0 {
		return nil, fmt.Errorf("%w: missing or misaligned batches section", ErrBadCheckpoint)
	}
	nB := len(st.bounds) / 8
	if uint64(nB) > count {
		return nil, fmt.Errorf("%w: %d batches for %d leaves", ErrBadCheckpoint, nB, count)
	}
	prevB := uint64(0)
	for i := 0; i < nB; i++ {
		b := le.Uint64(st.bounds[i*8:])
		if b <= prevB || b > count {
			return nil, fmt.Errorf("%w: batch bounds not strictly ascending at %d", ErrBadCheckpoint, i)
		}
		prevB = b
	}
	if count > 0 && (nB == 0 || prevB != count) {
		return nil, fmt.Errorf("%w: batch bounds end at %d, leaf count %d", ErrBadCheckpoint, prevB, count)
	}

	if err := st.openRoot(secs); err != nil {
		return nil, err
	}
	return st, nil
}

// openRoot validates the root section and checks the recorded structural
// root against the stored top-level hash — the O(1) consistency check the
// trust model rests on (with the signed root itself verified by the
// caller against the trust anchor).
func (st *MappedState) openRoot(secs map[uint32][]byte) error {
	sec, ok := secs[v2SecRoot]
	if !ok || len(sec) < 48 {
		return fmt.Errorf("%w: missing or truncated root section", ErrBadCheckpoint)
	}
	copy(st.treeRoot[:], sec)
	copy(st.freshness[:], sec[20:])
	hasRoot, hasSeed := sec[40] != 0, sec[41] != 0
	rootLen := int(binary.LittleEndian.Uint32(sec[44:]))
	want := 48 + rootLen
	if hasSeed {
		want += cryptoutil.HashSize
	}
	if len(sec) != want {
		return fmt.Errorf("%w: root section holds %d bytes, want %d", ErrBadCheckpoint, len(sec), want)
	}
	if hasRoot {
		root, err := DecodeSignedRoot(sec[48 : 48+rootLen])
		if err != nil {
			return fmt.Errorf("%w: embedded signed root: %v", ErrBadCheckpoint, err)
		}
		st.root = root
	} else if rootLen != 0 {
		return fmt.Errorf("%w: root bytes without root flag", ErrBadCheckpoint)
	}
	if hasSeed {
		var seed cryptoutil.Hash
		copy(seed[:], sec[48+rootLen:])
		st.seed = &seed
	}

	// Structural root consistency: the recorded root must be what the
	// stored arrays commit to — the last node of the levels section, which
	// stores the root level last.
	computed := EmptyRoot
	if st.count > 0 {
		computed = *nodeAt(st.levels, len(st.levels)/cryptoutil.HashSize-1)
	}
	if !computed.Equal(st.treeRoot) {
		return fmt.Errorf("%w: recorded root does not match stored structure", ErrBadCheckpoint)
	}
	if st.root != nil && st.root.N != uint64(st.count) {
		return fmt.Errorf("%w: signed root commits %d revocations, checkpoint holds %d", ErrBadCheckpoint, st.root.N, st.count)
	}
	if st.root != nil && !st.root.Root.Equal(st.treeRoot) {
		return fmt.Errorf("%w: signed root does not match recorded structural root", ErrBadCheckpoint)
	}
	if st.root == nil && st.count != 0 {
		return fmt.Errorf("%w: %d revocations but no signed root", ErrBadCheckpoint, st.count)
	}
	return nil
}

// materializeLog inverts the leaf records' revocation numbers back into
// the issuance-ordered log. Filling every slot exactly once doubles as
// the permutation check deferred by OpenMappedState. The serials are packed
// into one arena of their own — not aliased into the checkpoint, which the
// log would then pin whole.
func (st *MappedState) materializeLog() ([]serial.Number, error) {
	log := make([]serial.Number, st.count)
	size := 0
	for i := range log {
		size += len(recSerial(st.leaves, i))
	}
	arena := make([]byte, 0, size)
	for i := range log {
		num, raw := recNum(st.leaves, i), recSerial(st.leaves, i)
		if !log[num-1].IsZero() {
			return nil, fmt.Errorf("%w: duplicate revocation number %d", ErrBadCheckpoint, num)
		}
		arena = append(arena, raw...)
		log[num-1] = viewSerial(arena[len(arena)-len(raw) : len(arena) : len(arena)])
	}
	return log, nil
}
