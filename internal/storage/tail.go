package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Tailing turns a Log into a replication source: a follower origin asks
// the leader for "everything after LSN x" and receives the leader's
// checkpoint (only when the follower is so far behind that the WAL alone
// cannot bridge the gap — the leader truncates covered records on
// checkpoint) plus the WAL frames after max(x, checkpoint LSN), in the
// exact CRC-framed on-disk encoding. The bytes that cross the wire are
// therefore the same bytes recovery replays from disk, and the follower
// re-verifies every one of them against the trust anchor before applying
// — storage ships history, it never vouches for it.

// Frame is one WAL record with its log sequence number.
type Frame struct {
	LSN     uint64
	Payload []byte
}

// TailResult is the suffix of a log's history after some LSN.
type TailResult struct {
	// CheckpointLSN is the LSN covered by the log's newest checkpoint
	// (0 = none installed).
	CheckpointLSN uint64
	// Checkpoint is the newest checkpoint state, read-only (the installed
	// image itself, as Load returns it); non-nil only when the requested
	// position precedes CheckpointLSN, i.e. the caller must restore the
	// snapshot before replaying frames.
	Checkpoint []byte
	// Frames are the WAL records with LSN > max(from, CheckpointLSN), in
	// order.
	Frames []Frame
	// LastLSN is the highest LSN the log has committed (0 = empty log).
	// A caller already at LastLSN is caught up.
	LastLSN uint64
}

// Tailer is implemented by logs that can serve their history suffix for
// replication. Both built-in backends implement it; wrap-around or
// third-party Logs may not, in which case the origin reports replication
// as unsupported.
type Tailer interface {
	Tail(from uint64) (TailResult, error)
}

// EncodeFrame appends the wire/on-disk encoding of one frame to dst:
// len u32 | lsn u64 | payload | crc32 u32 (big-endian, CRC-32 IEEE over
// lsn+payload). This is byte-identical to the file backend's WAL framing.
func EncodeFrame(dst []byte, lsn uint64, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	start := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, lsn)
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// EncodeFrames appends the encoding of each frame to dst.
func EncodeFrames(dst []byte, frames []Frame) []byte {
	for _, f := range frames {
		dst = EncodeFrame(dst, f.LSN, f.Payload)
	}
	return dst
}

// DecodeFrames parses a concatenation of frames. Unlike recovery's
// torn-tail tolerance, decoding is strict: a short frame, oversized
// length, or CRC mismatch is an error, because a replication response is
// either delivered intact or retried — there is no "crash mid-append"
// shape to forgive.
func DecodeFrames(buf []byte) ([]Frame, error) {
	var frames []Frame
	for len(buf) > 0 {
		if len(buf) < 4 {
			return nil, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
		}
		n := binary.BigEndian.Uint32(buf[:4])
		if n > maxRecordLen {
			return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, n)
		}
		if len(buf) < 4+8+int(n)+4 {
			return nil, fmt.Errorf("%w: truncated frame body", ErrCorrupt)
		}
		body := buf[4 : 4+8+int(n)]
		wantCRC := binary.BigEndian.Uint32(buf[4+8+int(n) : 4+8+int(n)+4])
		if crc32.ChecksumIEEE(body) != wantCRC {
			return nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
		}
		frames = append(frames, Frame{
			LSN:     binary.BigEndian.Uint64(body[:8]),
			Payload: append([]byte(nil), body[8:]...),
		})
		buf = buf[4+8+int(n)+4:]
	}
	return frames, nil
}

// Tail implements Tailer for the file backend by re-reading the WAL's
// committed prefix. The read happens under the log mutex, so it observes
// a frame boundary: walSize only ever covers fully committed frames.
func (l *fileLog) Tail(from uint64) (TailResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wal == nil {
		return TailResult{}, fmt.Errorf("storage: tail of closed log %q", l.name)
	}
	res := TailResult{CheckpointLSN: l.ckptLSN, LastLSN: l.nextLSN - 1}
	floor := from
	if l.ckptLSN > floor {
		floor = l.ckptLSN
		if from < l.ckptLSN {
			res.Checkpoint = l.checkpoint
		}
	}
	if l.walSize > 0 {
		buf := make([]byte, l.walSize)
		if _, err := l.wal.ReadAt(buf, 0); err != nil {
			return TailResult{}, fmt.Errorf("storage: tail %q: %w", l.name, err)
		}
		all, err := DecodeFrames(buf)
		if err != nil {
			return TailResult{}, fmt.Errorf("storage: tail %q: %w", l.name, err)
		}
		for _, f := range all {
			// A crash between checkpoint install and WAL truncation leaves
			// covered frames behind; skip them exactly as recovery does.
			if f.LSN > floor {
				res.Frames = append(res.Frames, f)
			}
		}
	}
	return res, nil
}

// Tail implements Tailer for the in-memory backend.
func (l *memoryLog) Tail(from uint64) (TailResult, error) {
	l.state.mu.Lock()
	defer l.state.mu.Unlock()
	if l.closed {
		return TailResult{}, fmt.Errorf("storage: tail of closed log %q", l.name)
	}
	res := TailResult{CheckpointLSN: l.state.ckptLSN, LastLSN: l.state.nextLSN - 1}
	floor := from
	if l.state.ckptLSN > floor {
		floor = l.state.ckptLSN
		if from < l.state.ckptLSN {
			res.Checkpoint = l.state.checkpoint
		}
	}
	for _, f := range l.state.wal {
		if f.LSN > floor {
			res.Frames = append(res.Frames, Frame{LSN: f.LSN, Payload: append([]byte(nil), f.Payload...)})
		}
	}
	return res, nil
}
