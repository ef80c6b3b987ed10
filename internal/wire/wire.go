// Package wire implements the deterministic binary encoding used by every
// RITM message that crosses a trust boundary: dictionary roots, proofs,
// freshness statements, certificates, and TLS-sim handshake payloads.
//
// The format is deliberately simple so that two independent implementations
// (CA-side and RA-side) can reproduce byte-identical encodings, which the
// authenticated dictionary requires: an RA accepts an update only if its
// locally rebuilt root equals the CA-signed root, so any encoding ambiguity
// would break synchronization.
//
// Primitives:
//
//   - unsigned integers: unsigned LEB128 (same as encoding/binary varints
//     without the zig-zag step)
//   - byte strings: uvarint length prefix followed by the raw bytes
//   - fixed-width integers: big-endian
//
// Encoder appends to a growing buffer; Decoder is a cursor with a sticky
// error so that callers can decode a whole message and check the error once.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Sticky decoding errors. They are compared with errors.Is by callers that
// need to distinguish truncation from malformed values.
var (
	// ErrTruncated reports that the buffer ended before a value was complete.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrOverflow reports a varint that does not fit in 64 bits.
	ErrOverflow = errors.New("wire: varint overflows 64 bits")
	// ErrTooLong reports a length prefix exceeding the decoder's limit.
	ErrTooLong = errors.New("wire: length prefix exceeds limit")
	// ErrTrailing reports unconsumed bytes after a complete message.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// MaxBytesLen caps the length prefix a Decoder will accept for a single
// byte-string field. It exists purely as a safety valve against corrupt or
// hostile length prefixes causing huge allocations; legitimate RITM messages
// are far smaller.
const MaxBytesLen = 1 << 26 // 64 MiB

// Encoder builds a deterministic binary message. The zero value is ready to
// use. Encoder methods never fail: encoding is total over the accepted input
// types.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder whose buffer has the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded message. The returned slice aliases the
// encoder's internal buffer; callers that keep encoding must copy it first.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset truncates the encoder so the buffer can be reused.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// encoderPool recycles encoder buffers across hot-path encodings (statuses
// are encoded once per cache miss, proofs once per Size call): the buffer
// grows to the working set's message size once and is then reused, so a
// steady state encodes with a single right-sized output allocation instead
// of one buffer allocation plus O(log size) growth reallocations per call.
var encoderPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 1024)} },
}

// PooledEncoder returns an empty encoder drawn from a package-level pool.
// The caller must finish with exactly one Finish call and must not retain
// the encoder (or any Bytes alias) afterwards.
func PooledEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// Finish returns a right-sized copy of the encoded message and recycles the
// encoder into the pool. The encoder must not be used after Finish.
func (e *Encoder) Finish() []byte {
	out := append(make([]byte, 0, len(e.buf)), e.buf...)
	encoderPool.Put(e)
	return out
}

// Uvarint appends v as an unsigned LEB128 varint.
func (e *Encoder) Uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Uint16 appends v big-endian.
func (e *Encoder) Uint16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// Uint32 appends v big-endian.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 appends v big-endian.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 appends v big-endian as its two's-complement bit pattern. RITM uses
// it for Unix timestamps.
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool appends 0x01 for true and 0x00 for false.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint8(1)
	} else {
		e.Uint8(0)
	}
}

// Bytes16 appends a byte string with a uvarint length prefix.
func (e *Encoder) BytesField(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends s with a uvarint length prefix.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends b verbatim with no length prefix. Use it only for fixed-width
// fields whose size is implied by the message type.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder is a cursor over an encoded message with a sticky error: after the
// first failure every subsequent read returns a zero value and the error is
// reported by Err. This lets message decoders read all fields linearly and
// validate once.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder reading from buf. The decoder does not copy
// buf; byte-string reads alias it unless otherwise documented.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int {
	if d.off > len(d.buf) {
		return 0
	}
	return len(d.buf) - d.off
}

// Finish reports an error if decoding failed or if unread bytes remain.
// Message decoders call it last to enforce canonical encodings.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, d.Remaining())
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads an unsigned LEB128 varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.fail(ErrTruncated)
	default:
		d.fail(ErrOverflow)
	}
	return 0
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() uint8 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 1 {
		d.fail(ErrTruncated)
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Uint16 reads a big-endian uint16.
func (d *Decoder) Uint16() uint16 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 2 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 4 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.fail(ErrTruncated)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Int64 reads a big-endian two's-complement int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Bool reads a single byte and reports whether it is nonzero. A canonical
// encoder only emits 0 or 1; any nonzero byte is accepted as true to keep
// Bool total, and strict validation belongs to the message layer.
func (d *Decoder) Bool() bool { return d.Uint8() != 0 }

// BytesField reads a uvarint-prefixed byte string. The returned slice
// aliases the decoder's buffer.
func (d *Decoder) BytesField() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > MaxBytesLen {
		d.fail(fmt.Errorf("%w: %d", ErrTooLong, n))
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// BytesCopy reads a uvarint-prefixed byte string into fresh storage, for
// callers that retain the value beyond the lifetime of the input buffer.
func (d *Decoder) BytesCopy() []byte {
	b := d.BytesField()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a uvarint-prefixed string. The result copies the bytes, as
// Go strings are immutable.
func (d *Decoder) String() string {
	return string(d.BytesField())
}

// Raw reads exactly n bytes with no length prefix. The returned slice
// aliases the decoder's buffer.
func (d *Decoder) Raw(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
