package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"ritm/internal/mmap"
)

// This file is the read-only side of the durable tier: mapping a log's
// state without opening it for writing. N co-located RA processes can
// point at one writer's data directory; each reader maps the current
// checkpoint (sharing physical pages via mmap where the platform allows)
// and polls a cheap Stamp to learn when the writer installed a new one.
//
// Readers never mutate anything — no torn-tail truncation, no WAL
// renumbering, no checkpoint repair. The writer's atomic-rename install
// discipline is what makes this safe: a mapped checkpoint file is never
// overwritten in place, so a live mapping stays byte-stable while the
// writer installs its successor, and the reader simply re-maps on the
// next stamp change.

// Mapper is the optional read-only extension of Backend. Both built-in
// backends implement it: FileBackend maps checkpoint files (mmap on
// platforms that support it), Memory hands out its installed images
// themselves, guarded by a version counter. Either way State is read-only
// and stays byte-stable while the writer installs a successor.
type Mapper interface {
	// Map returns the newest valid checkpoint state and the WAL records
	// appended after it, without opening the log for writing. A log with
	// no durable state yet yields an empty (nil-State) checkpoint.
	Map(name string) (*MappedCheckpoint, error)
	// MapStamp fingerprints the log's durable state. It is cheap (two
	// stats for the file backend); an unchanged stamp means a prior Map
	// is still current, a changed one means the reader should re-Map.
	MapStamp(name string) (Stamp, error)
}

// Stamp is a comparable fingerprint of a log's durable state, used by
// read-only consumers to detect writer activity. Opaque: compare with
// ==, do not interpret.
type Stamp struct {
	ckptSize int64
	ckptMod  int64
	walSize  int64
}

// MappedCheckpoint is one read-only view of a log's durable state.
type MappedCheckpoint struct {
	// State is the newest valid checkpoint payload, nil if none was ever
	// installed; read-only. For the file backend it aliases the mapping —
	// valid only until Close, shared with every other reader of the same
	// file; for Memory it is the installed image itself.
	State []byte
	// WAL holds the decoded payloads of the records appended after the
	// checkpoint, in order; read-only. Always heap memory (the WAL file
	// mutates in place, so aliasing it would not be stable).
	WAL [][]byte
	// Stamp fingerprints the durable state this view was taken from,
	// taken before the files were read: if MapStamp still returns it,
	// the view is current (a concurrent install can only make the stamp
	// newer than the view, never the reverse).
	Stamp Stamp
	// SharedPages reports whether State aliases a file mapping shared
	// with other processes (false for the heap fallback and Memory).
	SharedPages bool

	mapping *mmap.Mapping
}

// Close releases the mapping. State must not be touched after. Safe to
// call twice, and on a checkpoint with no mapping.
func (c *MappedCheckpoint) Close() error {
	if c.mapping == nil {
		return nil
	}
	m := c.mapping
	c.mapping = nil
	c.State = nil
	return m.Close()
}

// Map implements Mapper.
func (b *FileBackend) Map(name string) (*MappedCheckpoint, error) {
	dir, err := b.logDir(name)
	if err != nil {
		return nil, err
	}
	stamp, err := b.MapStamp(name)
	if err != nil {
		return nil, err
	}

	mc := &MappedCheckpoint{Stamp: stamp}
	var ckptLSN uint64
	m, state, lsn, err := mapCheckpoint(filepath.Join(dir, ckptName))
	if err != nil {
		// Newest damaged or missing mid-install (the window between the
		// cur→prev and tmp→cur renames has no cur at all): the fallback
		// plus the intact WAL is still a consistent prefix, same as
		// writer-side recovery. Only a doubly-missing pair means a
		// genuinely fresh log.
		curMissing := os.IsNotExist(err)
		m, state, lsn, err = mapCheckpoint(filepath.Join(dir, ckptPrevName))
		if err != nil && os.IsNotExist(err) && !curMissing {
			err = fmt.Errorf("%w: checkpoint damaged and no fallback", ErrCorrupt)
		}
	}
	switch {
	case err == nil:
		mc.mapping, mc.State, ckptLSN = m, state, lsn
		mc.SharedPages = m.Mapped()
	case os.IsNotExist(err):
		// Fresh log: no checkpoint yet, possibly WAL records.
	default:
		return nil, fmt.Errorf("storage: map %q: %w", name, err)
	}

	f, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		if os.IsNotExist(err) {
			return mc, nil
		}
		mc.Close()
		return nil, fmt.Errorf("storage: map %q: %w", name, err)
	}
	// Records covered by the checkpoint (lsn ≤ ckptLSN) are skipped; a
	// torn tail — including a frame the writer is appending right now —
	// ends the scan. Readers tolerate, never repair.
	_, records, _, _ := scanWAL(f, ckptLSN)
	f.Close()
	mc.WAL = records
	return mc, nil
}

// MapStamp implements Mapper.
func (b *FileBackend) MapStamp(name string) (Stamp, error) {
	dir, err := b.logDir(name)
	if err != nil {
		return Stamp{}, err
	}
	var s Stamp
	if fi, err := os.Stat(filepath.Join(dir, ckptName)); err == nil {
		s.ckptSize = fi.Size()
		s.ckptMod = fi.ModTime().UnixNano()
	}
	if fi, err := os.Stat(filepath.Join(dir, walName)); err == nil {
		s.walSize = fi.Size()
	}
	return s, nil
}

// mapCheckpoint maps one checkpoint file and validates its framing and
// checksum, returning the mapping, the state payload (aliasing the
// mapping), and the lsn the checkpoint covers.
func mapCheckpoint(path string) (*mmap.Mapping, []byte, uint64, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	buf := m.Data()
	headerLen := len(checkpointMagic) + 12
	if len(buf) < headerLen+4 ||
		string(buf[:len(checkpointMagic)]) != string(checkpointMagic) {
		m.Close()
		return nil, nil, 0, fmt.Errorf("%w: bad checkpoint framing", ErrCorrupt)
	}
	body := buf[len(checkpointMagic):]
	lsn := binary.BigEndian.Uint64(body[:8])
	n := binary.BigEndian.Uint32(body[8:12])
	if uint64(n) > maxRecordLen || len(body) != 12+int(n)+4 {
		m.Close()
		return nil, nil, 0, fmt.Errorf("%w: bad checkpoint length", ErrCorrupt)
	}
	state := body[12 : 12+n]
	if crc32.ChecksumIEEE(body[:12+n]) != binary.BigEndian.Uint32(body[12+n:]) {
		m.Close()
		return nil, nil, 0, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	return m, state, lsn, nil
}

// Map implements Mapper: Memory hands out the installed image and the WAL
// payloads themselves, which no one writes again (Checkpoint takes the
// image over; Append copies each record in).
func (m *Memory) Map(name string) (*MappedCheckpoint, error) {
	m.mu.Lock()
	st, ok := m.logs[name]
	m.mu.Unlock()
	if !ok {
		return &MappedCheckpoint{}, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	mc := &MappedCheckpoint{State: st.checkpoint, Stamp: Stamp{ckptMod: int64(st.version)}}
	for _, rec := range st.wal {
		mc.WAL = append(mc.WAL, rec.Payload)
	}
	return mc, nil
}

// MapStamp implements Mapper.
func (m *Memory) MapStamp(name string) (Stamp, error) {
	m.mu.Lock()
	st, ok := m.logs[name]
	m.mu.Unlock()
	if !ok {
		return Stamp{}, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return Stamp{ckptMod: int64(st.version)}, nil
}
