package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder(64)
	e.Uvarint(0)
	e.Uvarint(300)
	e.Uvarint(math.MaxUint64)
	e.Uint8(0xAB)
	e.Uint16(0xBEEF)
	e.Uint32(0xDEADBEEF)
	e.Uint64(0x0102030405060708)
	e.Int64(-42)
	e.Bool(true)
	e.Bool(false)

	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint() = %d, want 0", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint() = %d, want 300", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint() = %d, want MaxUint64", got)
	}
	if got := d.Uint8(); got != 0xAB {
		t.Errorf("Uint8() = %#x, want 0xAB", got)
	}
	if got := d.Uint16(); got != 0xBEEF {
		t.Errorf("Uint16() = %#x, want 0xBEEF", got)
	}
	if got := d.Uint32(); got != 0xDEADBEEF {
		t.Errorf("Uint32() = %#x, want 0xDEADBEEF", got)
	}
	if got := d.Uint64(); got != 0x0102030405060708 {
		t.Errorf("Uint64() = %#x", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64() = %d, want -42", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool() = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool() = true, want false")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish() = %v", err)
	}
}

func TestRoundTripBytesAndString(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
		s    string
	}{
		{name: "empty", b: nil, s: ""},
		{name: "short", b: []byte{1, 2, 3}, s: "abc"},
		{name: "binary", b: []byte{0, 255, 0}, s: "\x00\xff"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := NewEncoder(0)
			e.BytesField(tt.b)
			e.String(tt.s)

			d := NewDecoder(e.Bytes())
			if got := d.BytesField(); !bytes.Equal(got, tt.b) {
				t.Errorf("BytesField() = %v, want %v", got, tt.b)
			}
			if got := d.String(); got != tt.s {
				t.Errorf("String() = %q, want %q", got, tt.s)
			}
			if err := d.Finish(); err != nil {
				t.Fatalf("Finish() = %v", err)
			}
		})
	}
}

func TestBytesCopyDoesNotAlias(t *testing.T) {
	e := NewEncoder(0)
	e.BytesField([]byte{1, 2, 3})
	buf := e.Bytes()

	d := NewDecoder(buf)
	got := d.BytesCopy()
	buf[1] = 99 // mutate the input; the copy must be unaffected
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("BytesCopy aliases input: got %v", got)
	}
}

func TestTruncatedErrors(t *testing.T) {
	tests := []struct {
		name string
		read func(*Decoder)
	}{
		{"uvarint", func(d *Decoder) { d.Uvarint() }},
		{"uint8", func(d *Decoder) { d.Uint8() }},
		{"uint16", func(d *Decoder) { d.Uint16() }},
		{"uint32", func(d *Decoder) { d.Uint32() }},
		{"uint64", func(d *Decoder) { d.Uint64() }},
		{"bytes", func(d *Decoder) { d.BytesField() }},
		{"raw", func(d *Decoder) { d.Raw(5) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := NewDecoder(nil)
			tt.read(d)
			if !errors.Is(d.Err(), ErrTruncated) {
				t.Errorf("Err() = %v, want ErrTruncated", d.Err())
			}
		})
	}
}

func TestBytesLengthPrefixTruncated(t *testing.T) {
	// Length prefix says 10 bytes but only 2 follow.
	e := NewEncoder(0)
	e.Uvarint(10)
	e.Raw([]byte{1, 2})
	d := NewDecoder(e.Bytes())
	if got := d.BytesField(); got != nil {
		t.Errorf("BytesField() = %v, want nil", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Errorf("Err() = %v, want ErrTruncated", d.Err())
	}
}

func TestBytesLengthLimit(t *testing.T) {
	e := NewEncoder(0)
	e.Uvarint(MaxBytesLen + 1)
	d := NewDecoder(e.Bytes())
	d.BytesField()
	if !errors.Is(d.Err(), ErrTooLong) {
		t.Errorf("Err() = %v, want ErrTooLong", d.Err())
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x01})
	d.Uint64() // fails: truncated
	if d.Err() == nil {
		t.Fatal("expected error after truncated read")
	}
	first := d.Err()
	// Subsequent reads must not clobber the first error or panic.
	d.Uint8()
	d.BytesField()
	if !errors.Is(d.Err(), first) {
		t.Errorf("sticky error replaced: %v != %v", d.Err(), first)
	}
}

func TestFinishTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.Uint8()
	err := d.Finish()
	if !errors.Is(err, ErrTrailing) {
		t.Errorf("Finish() = %v, want ErrTrailing", err)
	}
}

func TestOverflowVarint(t *testing.T) {
	// 11 continuation bytes with high bits set overflow uint64.
	buf := bytes.Repeat([]byte{0xFF}, 11)
	d := NewDecoder(buf)
	d.Uvarint()
	if !errors.Is(d.Err(), ErrOverflow) {
		t.Errorf("Err() = %v, want ErrOverflow", d.Err())
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(7)
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Errorf("%d bytes after Reset, want 0", len(e.Bytes()))
	}
	e.Uint8(9)
	if !bytes.Equal(e.Bytes(), []byte{9}) {
		t.Errorf("Bytes() = %v, want [9]", e.Bytes())
	}
}

// Property: any (uint64, []byte, string) tuple round-trips through the
// encoder and decoder unchanged, and the decoder consumes the whole buffer.
func TestQuickRoundTrip(t *testing.T) {
	f := func(v uint64, b []byte, s string, x uint16) bool {
		e := NewEncoder(0)
		e.Uvarint(v)
		e.BytesField(b)
		e.String(s)
		e.Uint16(x)

		d := NewDecoder(e.Bytes())
		gv := d.Uvarint()
		gb := d.BytesField()
		gs := d.String()
		gx := d.Uint16()
		if err := d.Finish(); err != nil {
			return false
		}
		return gv == v && bytes.Equal(gb, b) && gs == s && gx == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary junk never panics and either fails or leaves
// a consistent remaining count.
func TestQuickDecodeJunkNoPanic(t *testing.T) {
	f := func(junk []byte) bool {
		d := NewDecoder(junk)
		d.Uvarint()
		d.BytesField()
		d.Uint32()
		_ = d.String()
		_ = d.Finish()
		return d.Remaining() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
