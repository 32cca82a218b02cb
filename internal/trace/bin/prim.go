package bin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc appends the codec's primitive values to B: bytes, varints, raw
// little-endian words and length-prefixed strings. Writer encodes every
// record with it, and the live wire transport (internal/bus/wire) frames
// its self-contained event, command and reply messages with it too, so the
// repository has one primitive encoder.
type Enc struct{ B []byte }

func (e *Enc) U8(v byte)        { e.B = append(e.B, v) }
func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }
func (e *Enc) Varint(v int64)   { e.B = binary.AppendVarint(e.B, v) }
func (e *Enc) U64(v uint64)     { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) F64(v float64)    { e.U64(math.Float64bits(v)) }

// Str appends s with its uvarint length prefix.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Dec reads Enc's primitives back out of a byte slice. Errors latch: after
// the first failure every read returns the zero value, and Err reports a
// failure wrapping ErrCorrupt. Reader decodes every record with it, and the
// wire transport decodes its frames with it.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the latched decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Rem returns the number of undecoded bytes.
func (d *Dec) Rem() int { return len(d.b) - d.off }

// Failf latches a corruption error (the first one wins).
func (d *Dec) Failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *Dec) U8() byte {
	if d.err != nil {
		return 0
	}
	if d.Rem() < 1 {
		d.Failf("record truncated at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Rem() < 8 {
		d.Failf("record truncated at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Failf("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Failf("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Bool() bool { return d.U8() != 0 }

// Str decodes a length-prefixed string.
func (d *Dec) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Rem()) {
		d.Failf("string length %d exceeds remainder %d", n, d.Rem())
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Count decodes a collection length and guards it against the bytes left
// (every element costs at least one byte), bounding allocations.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Rem()) {
		d.Failf("count %d exceeds remainder %d", n, d.Rem())
		return 0
	}
	return int(n)
}
