// Package storage is RITM's durable state tier: an append-only write-ahead
// log of signed ∆ update batches plus periodic checkpoint snapshots, behind
// a pluggable Backend so every stateful component (the CA's authority, the
// CDN distribution point, the RA's dictionary store) can survive a crash
// and warm-start instead of resynchronizing from scratch.
//
// The paper's availability story (§VII: CDNs keep serving signed
// dictionaries through CA outages) assumes an origin that can come back
// after a crash without losing its update log; this package is that log.
// The contents it persists are exactly the messages that already cross
// trust boundaries — signed issuance batches and committed dictionary
// state — so recovery re-verifies everything against the trust anchor and
// a corrupted store can at worst lose a suffix, never forge state.
//
// A Backend hands out one Log per named dictionary. A Log is two files'
// worth of state:
//
//   - a WAL of length-prefixed, CRC-framed records, appended (and, by
//     default, fsynced) on every committed update batch;
//   - checkpoint snapshots of the committed state, installed atomically by
//     rename, with the previous checkpoint retained as a fallback.
//
// Recovery loads the newest valid checkpoint and replays the WAL records
// after it (records are stamped with a log sequence number, so records
// already covered by the checkpoint are skipped). A torn WAL tail — a
// partially written frame from a crash mid-append — is truncated; a frame
// whose CRC does not match is treated as the end of the usable prefix.
// Either way the caller observes a prefix-consistent history.
//
// The zero configuration (a nil Backend everywhere) preserves the old
// purely in-memory behavior byte for byte; Memory is a Backend for tests
// and simulations that want restart semantics without a filesystem.
package storage

import (
	"fmt"
	"sync"
)

// Backend opens durable logs for named dictionaries. Implementations:
// FileBackend (one directory per log under a root), Memory (retained
// in-process, for tests and restart simulations).
type Backend interface {
	// Open returns the log for the dictionary named name, creating it if it
	// does not exist and recovering its state if it does. Names may contain
	// any bytes (CA identifiers include '/'); backends are responsible for
	// mapping them onto their namespace.
	Open(name string) (Log, error)
}

// Log is one dictionary's durable state: an append-only WAL plus the
// newest checkpoint snapshot. Records and checkpoint states are opaque
// bytes; the dictionary layer owns their encoding (and re-verifies them
// against the trust anchor on recovery — storage integrity is framing and
// checksums, not authentication).
type Log interface {
	// Load returns the newest valid checkpoint state (nil if none was ever
	// installed) and the WAL records appended after it, in order. It
	// reflects recovery performed at Open time; calling it again returns
	// the same data until the log is mutated. The returned buffers are
	// read-only and stay valid after the log is mutated or closed: a caller
	// may keep them, as a restarted replica keeps the checkpoint as its tree.
	Load() (checkpoint []byte, wal [][]byte, err error)
	// Append durably adds one WAL record.
	Append(record []byte) error
	// Checkpoint atomically installs state as the newest checkpoint and
	// discards the WAL records it covers. A crash at any point leaves
	// either the previous checkpoint plus the full WAL or the new
	// checkpoint recoverable. The state is handed over, not copied: the
	// log may keep the buffer and hand it to Load and Map, so nothing may
	// write it afterwards (a replica's checkpoint is the image its tree
	// and snapshots read, and they never write it again).
	Checkpoint(state []byte) error
	// Close releases the log's resources. The log must not be used after.
	Close() error
	// Destroy closes the log and deletes its durable state (an RA dropping
	// an expired shard reclaims the disk too).
	Destroy() error
}

// Memory is a Backend retained entirely in process memory: reopening a
// name on the same Memory instance recovers the state a previous Log
// holder left behind, which is exactly what restart tests and simulations
// need. It performs no framing or checksumming — there is no medium to
// corrupt — but honors the same Load/Append/Checkpoint contract. A
// checkpoint is kept as the buffer Checkpoint was handed, and Load and Map
// hand that one buffer out, read-only, to every caller.
type Memory struct {
	mu   sync.Mutex
	logs map[string]*memoryState
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{logs: make(map[string]*memoryState)}
}

// memoryState is the retained state of one named log. Records carry the
// same per-log monotone LSNs as the file backend so the Memory backend
// can serve replication tails with identical semantics.
type memoryState struct {
	mu         sync.Mutex
	checkpoint []byte
	wal        []Frame
	nextLSN    uint64
	ckptLSN    uint64
	// version counts mutations; it backs the Memory backend's MapStamp
	// the way file size/mtime back the file backend's.
	version uint64
}

// Open implements Backend.
func (m *Memory) Open(name string) (Log, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.logs[name]
	if !ok {
		st = &memoryState{nextLSN: 1}
		m.logs[name] = st
	}
	return &memoryLog{backend: m, name: name, state: st}, nil
}

type memoryLog struct {
	backend *Memory
	name    string
	state   *memoryState
	closed  bool
}

func (l *memoryLog) Load() ([]byte, [][]byte, error) {
	l.state.mu.Lock()
	defer l.state.mu.Unlock()
	if l.closed {
		return nil, nil, fmt.Errorf("storage: log %q is closed", l.name)
	}
	wal := make([][]byte, len(l.state.wal))
	for i, f := range l.state.wal {
		wal[i] = f.Payload
	}
	return l.state.checkpoint, wal, nil
}

func (l *memoryLog) Append(record []byte) error {
	l.state.mu.Lock()
	defer l.state.mu.Unlock()
	if l.closed {
		return fmt.Errorf("storage: append to closed log %q", l.name)
	}
	l.state.wal = append(l.state.wal, Frame{LSN: l.state.nextLSN, Payload: append([]byte(nil), record...)})
	l.state.nextLSN++
	l.state.version++
	return nil
}

func (l *memoryLog) Checkpoint(state []byte) error {
	l.state.mu.Lock()
	defer l.state.mu.Unlock()
	if l.closed {
		return fmt.Errorf("storage: checkpoint on closed log %q", l.name)
	}
	l.state.checkpoint = state
	l.state.wal = nil
	l.state.ckptLSN = l.state.nextLSN - 1
	l.state.version++
	return nil
}

func (l *memoryLog) Close() error {
	l.state.mu.Lock()
	defer l.state.mu.Unlock()
	l.closed = true
	return nil
}

func (l *memoryLog) Destroy() error {
	l.backend.mu.Lock()
	delete(l.backend.logs, l.name)
	l.backend.mu.Unlock()
	return l.Close()
}
