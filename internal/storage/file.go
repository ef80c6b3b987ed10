package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sync"
)

// File layout of one FileBackend log, under <root>/<escaped name>/:
//
//	wal.log          frames: len u32 | lsn u64 | payload | crc32 u32
//	checkpoint       magic | lsn u64 | len u32 | state | crc32 u32
//	checkpoint.prev  the previously installed checkpoint (fallback)
//	checkpoint.tmp   in-progress install; ignored and removed on open
//
// Lengths and fixed-width integers are big-endian; the CRC is IEEE CRC-32
// over everything after the length prefix (WAL) or after the magic
// (checkpoint). The lsn is a per-log monotone counter: a checkpoint covers
// every record with lsn ≤ its own, which is what lets Checkpoint truncate
// the WAL lazily — leftover covered records found after a crash are simply
// skipped on recovery.
const (
	walName      = "wal.log"
	ckptName     = "checkpoint"
	ckptPrevName = "checkpoint.prev"
	ckptTmpName  = "checkpoint.tmp"
)

// checkpointMagic versions the checkpoint file format.
var checkpointMagic = []byte("RITMCKP1")

// maxRecordLen bounds a single WAL record or checkpoint state, purely as a
// safety valve against a corrupt length prefix allocating gigabytes. Real
// records are signed issuance batches (kilobytes); checkpoints of a
// 339k-entry dictionary are a few megabytes.
const maxRecordLen = 1 << 30

// ErrCorrupt reports durable state that failed framing or checksum
// validation beyond what recovery can repair (for example, both the newest
// and the fallback checkpoint are damaged). Torn WAL tails are NOT
// reported as ErrCorrupt: they are the expected shape of a crash and are
// truncated silently.
var ErrCorrupt = errors.New("storage: corrupt durable state")

// FileBackend stores each named log in its own directory under Dir.
type FileBackend struct {
	// Dir is the root directory; it is created on first Open.
	Dir string
	// Fsync, when true (the default from NewFileBackend), syncs the WAL
	// file on every Append — the "fsync-on-commit" durability point. With
	// it off, a power failure can lose the records the OS had not flushed
	// yet (a crash of the process alone loses nothing); recovery semantics
	// are unchanged. Checkpoint installs always sync regardless, since the
	// rename protocol depends on ordering.
	Fsync bool
}

// NewFileBackend returns a file-backed Backend rooted at dir with
// fsync-on-commit enabled or disabled.
func NewFileBackend(dir string, fsync bool) *FileBackend {
	return &FileBackend{Dir: dir, Fsync: fsync}
}

// Open implements Backend: it creates the log's directory if needed and
// recovers its durable state (checkpoint selection, WAL scan, torn-tail
// truncation).
func (b *FileBackend) Open(name string) (Log, error) {
	dir, err := b.logDir(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %q: %w", name, err)
	}
	l := &fileLog{dir: dir, name: name, fsync: b.Fsync}
	if err := l.recover(); err != nil {
		return nil, fmt.Errorf("storage: recover %q: %w", name, err)
	}
	return l, nil
}

// logDir is the directory holding the log called name. url.QueryEscape
// leaves "", "." and ".." unchanged, and joined onto Dir they name Dir
// itself or its parent — where Destroy would wipe every log, or files that
// are no log's — so they are refused.
func (b *FileBackend) logDir(name string) (string, error) {
	if b.Dir == "" {
		return "", fmt.Errorf("storage: file backend has no root directory")
	}
	if name == "" || name == "." || name == ".." {
		return "", fmt.Errorf("storage: log name %q is not a directory under the data dir", name)
	}
	return filepath.Join(b.Dir, url.QueryEscape(name)), nil
}

// fileLog is one directory's worth of durable state.
type fileLog struct {
	dir   string
	name  string
	fsync bool

	mu      sync.Mutex
	wal     *os.File // open for append; nil after Close
	walSize int64    // offset after the last fully committed frame
	nextLSN uint64
	ckptLSN uint64 // lsn the loaded checkpoint covers (0 = none)
	// failed latches after an append error that could not be rolled back
	// (truncate failed too): the file may end in torn bytes that a later
	// append would bury, silently losing it to the next recovery's
	// torn-tail truncation. Once latched, every mutation is refused.
	failed bool

	// Recovery results, served by Load.
	checkpoint []byte
	records    [][]byte
}

// recover selects the newest valid checkpoint, scans the WAL (truncating a
// torn or corrupt tail), and leaves the WAL file open for appends.
func (l *fileLog) recover() error {
	// A crash mid-install can leave checkpoint.tmp behind; it was never
	// activated, so it is garbage.
	os.Remove(filepath.Join(l.dir, ckptTmpName))

	usedFallback := false
	state, lsn, err := readCheckpoint(filepath.Join(l.dir, ckptName))
	if err != nil {
		// Fall back to the previous checkpoint: either the newest install
		// was interrupted between the two renames (no checkpoint file at
		// all) or the newest file is damaged. The fallback plus the intact
		// WAL is still a consistent prefix.
		var prevErr error
		state, lsn, prevErr = readCheckpoint(filepath.Join(l.dir, ckptPrevName))
		if prevErr != nil {
			if os.IsNotExist(err) && os.IsNotExist(prevErr) {
				// No checkpoint was ever installed: a genuinely fresh log.
				state, lsn = nil, 0
			} else {
				// A checkpoint existed but nothing trustworthy survives to
				// anchor a replay on. Fail loudly rather than serve an
				// unverifiable (or silently emptied) state.
				return fmt.Errorf("%w: checkpoint unreadable (%v) and fallback unreadable (%v)", ErrCorrupt, err, prevErr)
			}
		} else {
			usedFallback = true
		}
	}
	l.checkpoint, l.ckptLSN = state, lsn
	l.nextLSN = lsn + 1

	walPath := filepath.Join(l.dir, walName)
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	good, records, lastLSN, holed := scanWAL(f, l.ckptLSN)
	l.wal = f
	l.records = records
	if usedFallback || holed {
		// The file's lsn sequence no longer lines up with the checkpoint
		// this recovery anchored on (the damaged newer checkpoint had
		// truncated records the fallback needs, or frames went missing).
		// Without normalization the misalignment is permanent: appends
		// made now would be skipped as non-contiguous by the NEXT
		// recovery — acknowledged writes silently lost. Rewrite the WAL
		// to exactly the records this recovery kept, renumbered
		// contiguously from the anchoring checkpoint.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return err
		}
		l.walSize = 0
		for _, rec := range records {
			if err := l.writeFrameLocked(rec, false); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return nil
	}
	// Truncate the torn/corrupt tail so appends extend the valid prefix.
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.walSize = good
	if lastLSN >= l.nextLSN {
		l.nextLSN = lastLSN + 1
	}
	return nil
}

// scanWAL walks the frames of f, returning the byte offset of the end of
// the last valid frame, the payloads of the contiguous lsn run
// after+1, after+2, …, the highest lsn seen, and whether any valid
// frame fell OUTSIDE that run (holed). A short or checksum-failing frame
// ends the scan: the bytes from there on are a torn tail. An lsn hole
// ends record collection (but not the scan): a hole means the records
// bridging the checkpoint to the survivors were lost — replaying the
// survivors onto the checkpoint would fabricate a history, so recovery
// keeps the shorter, consistent prefix instead (and, seeing holed,
// rewrites the file so the kept prefix and future appends stay
// recoverable). Holes only arise when recovery fell back to the previous
// checkpoint after the newest one (whose install truncated the WAL) was
// damaged.
func scanWAL(f *os.File, after uint64) (good int64, records [][]byte, lastLSN uint64, holed bool) {
	var off int64
	var header [4]byte
	expect := after + 1
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			return off, records, lastLSN, holed // clean EOF or torn length
		}
		n := binary.BigEndian.Uint32(header[:])
		if n > maxRecordLen {
			return off, records, lastLSN, holed // corrupt length: tail ends here
		}
		body := make([]byte, 8+int(n)+4)
		if _, err := io.ReadFull(f, body); err != nil {
			return off, records, lastLSN, holed // torn frame
		}
		payload := body[8 : 8+n]
		wantCRC := binary.BigEndian.Uint32(body[8+n:])
		if crc32.ChecksumIEEE(body[:8+n]) != wantCRC {
			return off, records, lastLSN, holed // bit rot or torn overwrite
		}
		lsn := binary.BigEndian.Uint64(body[:8])
		if lsn > lastLSN {
			lastLSN = lsn
		}
		switch {
		case lsn == expect:
			records = append(records, payload)
			expect++
		case lsn > after:
			// Uncollected live frame: the sequence is out of joint.
			holed = true
		}
		off += int64(4 + len(body))
	}
}

// readCheckpoint parses and validates one checkpoint file.
func readCheckpoint(path string) ([]byte, uint64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	headerLen := len(checkpointMagic) + 8 + 4
	if len(buf) < headerLen+4 {
		return nil, 0, fmt.Errorf("%w: checkpoint too short", ErrCorrupt)
	}
	if string(buf[:len(checkpointMagic)]) != string(checkpointMagic) {
		return nil, 0, fmt.Errorf("%w: bad checkpoint magic", ErrCorrupt)
	}
	body := buf[len(checkpointMagic):]
	lsn := binary.BigEndian.Uint64(body[:8])
	n := binary.BigEndian.Uint32(body[8:12])
	if uint64(n) > maxRecordLen || len(body) != 12+int(n)+4 {
		return nil, 0, fmt.Errorf("%w: bad checkpoint length", ErrCorrupt)
	}
	state := body[12 : 12+n]
	wantCRC := binary.BigEndian.Uint32(body[12+n:])
	if crc32.ChecksumIEEE(body[:12+n]) != wantCRC {
		return nil, 0, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	return state, lsn, nil
}

func (l *fileLog) Load() ([]byte, [][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil, nil, fmt.Errorf("storage: log %q is closed", l.name)
	}
	return l.checkpoint, l.records, nil
}

func (l *fileLog) Append(record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return fmt.Errorf("storage: append to closed log %q", l.name)
	}
	if l.failed {
		return fmt.Errorf("%w: log %q failed a previous write and cannot be repaired in place", ErrCorrupt, l.name)
	}
	if len(record) > maxRecordLen {
		return fmt.Errorf("storage: record of %d bytes exceeds limit", len(record))
	}
	return l.writeFrameLocked(record, l.fsync)
}

// writeFrameLocked frames and writes one record at nextLSN, optionally
// syncing. On failure the file is rewound to the last committed frame: a
// partial write (ENOSPC, I/O error) leaves torn bytes at the end of the
// file, and they must not stay there — a LATER successful append would
// land after them, and recovery's torn-tail scan would stop at the
// garbage and truncate the acknowledged frame away. (A failed fsync
// rewinds too: the caller treats the record as not persisted, so the
// file must agree.) Caller holds mu.
func (l *fileLog) writeFrameLocked(record []byte, sync bool) error {
	frame := make([]byte, 4+8+len(record)+4)
	binary.BigEndian.PutUint32(frame[:4], uint32(len(record)))
	binary.BigEndian.PutUint64(frame[4:12], l.nextLSN)
	copy(frame[12:], record)
	binary.BigEndian.PutUint32(frame[12+len(record):], crc32.ChecksumIEEE(frame[4:12+len(record)]))
	if _, err := l.wal.Write(frame); err != nil {
		l.rewindLocked()
		return fmt.Errorf("storage: append %q: %w", l.name, err)
	}
	if sync {
		if err := l.wal.Sync(); err != nil {
			l.rewindLocked()
			return fmt.Errorf("storage: fsync %q: %w", l.name, err)
		}
	}
	l.walSize += int64(len(frame))
	l.nextLSN++
	return nil
}

// rewindLocked truncates the WAL back to the last committed frame after a
// failed write, latching the log failed if the rewind itself fails.
// Caller holds mu.
func (l *fileLog) rewindLocked() {
	if l.wal.Truncate(l.walSize) != nil {
		l.failed = true
		return
	}
	if _, err := l.wal.Seek(l.walSize, io.SeekStart); err != nil {
		l.failed = true
	}
}

func (l *fileLog) Checkpoint(state []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return fmt.Errorf("storage: checkpoint on closed log %q", l.name)
	}
	if l.failed {
		return fmt.Errorf("%w: log %q failed a previous write and cannot be repaired in place", ErrCorrupt, l.name)
	}
	if len(state) > maxRecordLen {
		return fmt.Errorf("storage: checkpoint of %d bytes exceeds limit", len(state))
	}
	// The checkpoint covers every record appended so far.
	lsn := l.nextLSN - 1

	// The frame is written around the state, not staged with it: the state
	// is the dictionary's whole image.
	header := make([]byte, 0, len(checkpointMagic)+12)
	header = append(header, checkpointMagic...)
	header = binary.BigEndian.AppendUint64(header, lsn)
	header = binary.BigEndian.AppendUint32(header, uint32(len(state)))
	crc := crc32.Update(crc32.ChecksumIEEE(header[len(checkpointMagic):]), crc32.IEEETable, state)
	trailer := binary.BigEndian.AppendUint32(nil, crc)

	tmp := filepath.Join(l.dir, ckptTmpName)
	cur := filepath.Join(l.dir, ckptName)
	prev := filepath.Join(l.dir, ckptPrevName)
	if err := writeFileSync(tmp, header, state, trailer); err != nil {
		return fmt.Errorf("storage: checkpoint %q: %w", l.name, err)
	}
	// Retain the current checkpoint as the fallback, then activate the new
	// one. Each rename is atomic; a crash between them recovers from the
	// fallback plus the still-untruncated WAL.
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, prev); err != nil {
			return fmt.Errorf("storage: checkpoint %q: %w", l.name, err)
		}
	}
	if err := os.Rename(tmp, cur); err != nil {
		return fmt.Errorf("storage: checkpoint %q: %w", l.name, err)
	}
	if err := syncDir(l.dir); err != nil {
		return fmt.Errorf("storage: checkpoint %q: %w", l.name, err)
	}
	// The WAL records covered by the checkpoint are dead weight now; a
	// crash before (or during) this truncation is harmless, since covered
	// records are filtered by lsn on recovery.
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("storage: truncate WAL %q: %w", l.name, err)
	}
	if _, err := l.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("storage: truncate WAL %q: %w", l.name, err)
	}
	l.walSize = 0
	l.checkpoint = state
	l.ckptLSN = lsn
	l.records = nil
	return nil
}

func (l *fileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return nil
	}
	err := l.wal.Close()
	l.wal = nil
	return err
}

func (l *fileLog) Destroy() error {
	if err := l.Close(); err != nil {
		return err
	}
	return os.RemoveAll(l.dir)
}

// writeFileSync writes parts back to back to path and syncs it to stable
// storage.
func writeFileSync(path string, parts ...[]byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir flushes directory metadata (the renames) to stable storage.
// Platforms that cannot sync directories (Windows) are given a pass: the
// rename itself is still atomic there.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil && (errors.Is(err, os.ErrInvalid) || errors.Is(err, os.ErrPermission)) {
		return nil
	}
	return err
}
