// Package wire provides the deterministic binary encoding shared by the
// replication substrate: low-level writer/reader primitives plus the
// encoding of tuple-space operations and their results.
//
// Determinism matters twice: request digests identify operations across
// replicas, and clients vote on reply bytes — equal logical values must
// encode to equal byte strings.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"peats/internal/tuple"
)

// ErrTruncated is returned when decoding runs out of bytes.
var ErrTruncated = errors.New("wire: truncated message")

// Writer accumulates a length-delimited binary message.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer. The buffer is presized for the
// protocol's typical small messages, so the append chain of a message
// encode usually costs one allocation instead of a growth ladder.
func NewWriter() *Writer { return NewWriterSize(128) }

// NewWriterSize returns an empty writer with room for n bytes — for
// encoders that know roughly how much they will write (a snapshot is
// about as long as the previous one), so a large message is built in
// one allocation instead of a ladder of doublings.
func NewWriterSize(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Data returns the accumulated bytes.
func (w *Writer) Data() []byte { return w.buf }

// Byte appends one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(u uint64) { w.buf = binary.AppendUvarint(w.buf, u) }

// Varint appends a signed varint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Tuple appends a tuple in its canonical encoding.
func (w *Writer) Tuple(t tuple.Tuple) { w.buf = tuple.Append(w.buf, t) }

// Reader consumes a binary message produced by Writer. The first
// decoding error sticks; check Err once after reading all fields.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// ExpectEOF records an error if unread bytes remain.
func (r *Reader) ExpectEOF() {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad uvarint", ErrTruncated))
		return 0
	}
	r.off += n
	return u
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("%w: bad varint", ErrTruncated))
		return 0
	}
	r.off += n
	return v
}

// BytesView reads a length-prefixed byte string without copying.
func (r *Reader) BytesView() []byte {
	l := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)-r.off) < l {
		r.fail(fmt.Errorf("%w: byte string", ErrTruncated))
		return nil
	}
	b := r.buf[r.off : r.off+int(l)]
	r.off += int(l)
	return b
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (r *Reader) Bytes() []byte {
	v := r.BytesView()
	if v == nil {
		return nil
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.BytesView()) }

// Tuple reads a canonical tuple.
func (r *Reader) Tuple() tuple.Tuple {
	if r.err != nil {
		return tuple.Tuple{}
	}
	t, n, err := tuple.Decode(r.buf[r.off:])
	if err != nil {
		r.fail(err)
		return tuple.Tuple{}
	}
	r.off += n
	return t
}
