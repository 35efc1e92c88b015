// Package wire defines the FractOS on-wire protocol: a compact binary
// codec and the message set exchanged between Processes, Controllers,
// and the bootstrap services.
//
// Every integer field is an unsigned LEB128 varint (Writer.U64), and
// every message that crosses the fabric is really encoded to bytes and
// decoded at the receiver; the encoded length is what the fabric
// charges against link bandwidth and what the traffic-accounting
// experiments count. This keeps the reproduction honest: the paper's
// network-message and byte reductions fall out of actual serialized
// traffic, not hand-written constants.
//
// There is one Decode method per message type and two ways to reach it.
// Unmarshal is the owning decode: a fresh struct and copies of every
// variable-length payload, so the result never aliases the frame.
// Decoder.Decode is the borrowing decode of a run-to-completion
// receiver: the struct and its lists are the Decoder's and payload
// bytes alias the frame, so the message is valid only until the
// Decoder's next Decode or the frame's release, whichever comes first —
// whatever outlives that is copied into storage its keeper owns.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShort is returned when decoding runs past the end of the buffer,
// or meets a varint too long or too large for its field.
var ErrShort = errors.New("wire: short buffer")

// ErrUnknownType is returned when unmarshalling a frame whose type is
// no message type.
var ErrUnknownType = errors.New("wire: unknown message type")

// Writer appends primitive values to a byte buffer. A Writer that is
// Reset and reused keeps the capacity its largest message needed, so
// encoding into it allocates nothing once it has seen its largest frame:
// that is how a fabric Frame carries its messages.
type Writer struct {
	buf []byte
}

// Reset truncates the Writer for reuse, keeping its capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) } // a reused Writer keeps the capacity of its largest message

// U16 appends a uint16 as a varint (U64).
func (w *Writer) U16(v uint16) { w.U64(uint64(v)) }

// U32 appends a uint32 as a varint (U64).
func (w *Writer) U32(v uint32) { w.U64(uint64(v)) }

// U64 appends v as an unsigned LEB128 varint: seven bits a byte, low
// group first, the top bit set on all but the last; a value below 128 —
// a count, a slot, a small id — is one byte.
func (w *Writer) U64(v uint64) {
	if v < 0x80 {
		w.buf = append(w.buf, byte(v)) // a reused Writer keeps the capacity of its largest message
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// flagged appends v with flag in a bit below it: a bit in a varint the
// frame carries anyway, one byte still while v is below 64.
func (w *Writer) flagged(v uint64, flag bool) {
	if flag {
		w.U64(v<<1 | 1)
	} else {
		w.U64(v << 1)
	}
}

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a byte slice behind its length (a U32).
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...) // a reused Writer keeps the capacity of its largest message
}

// Reader consumes primitive values from a byte buffer. Errors are
// sticky: after the first short read, all further reads return zero
// values and Err reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
	// dec is set while a Decoder reads through this Reader: byte
	// payloads then alias buf and lists land in dec's storage.
	dec *Decoder
}

// Reset re-points the Reader at a new buffer, clearing any sticky
// error, so a Reader value can be reused without allocation.
func (r *Reader) Reset(b []byte) {
	r.buf = b
	r.off = 0
	r.err = nil
	r.dec = nil
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = ErrShort
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// uvarint reads a varint into a field whose largest value is max. One
// that runs past the end, past binary.MaxVarintLen64 bytes or over max
// fails with ErrShort: a field is never silently truncated to its width.
func (r *Reader) uvarint(max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		r.off++
		return uint64(r.buf[r.off-1])
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || v > max {
		r.err = ErrShort
		return 0
	}
	r.off += n
	return v
}

// U16 reads a varint uint16.
func (r *Reader) U16() uint16 { return uint16(r.uvarint(math.MaxUint16)) }

// U32 reads a varint uint32.
func (r *Reader) U32() uint32 { return uint32(r.uvarint(math.MaxUint32)) }

// U64 reads a varint uint64.
func (r *Reader) U64() uint64 { return r.uvarint(math.MaxUint64) }

// flagged reads a value of at most max and Writer.flagged's flag.
func (r *Reader) flagged(max uint64) (uint64, bool) {
	v := r.uvarint(max<<1 | 1)
	return v >> 1, v&1 != 0
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 reads a length-prefixed byte slice. The result is a copy so
// callers may retain it — except under a Decoder, where it aliases the
// buffer (capacity clipped, so appending to it cannot write the frame).
func (r *Reader) Bytes32() []byte {
	b := r.take(int(r.U32())) // nil once r.err is set
	if b == nil || r.dec != nil {
		return b[:len(b):len(b)]
	}
	return bytes.Clone(b)
}

// Within reports whether [off, off+n) lies inside [0, size) without
// forming off+n, which a length that came off the wire can wrap. A
// negative int64 passed as uint64(x) is huge, so it fails.
func Within(off, n, size uint64) bool { return n <= size && off <= size-n }

// capacity is the builtin cap, for messages.go where the capability
// package's name shadows it.
func capacity[T any](s []T) int { return cap(s) }

// Type identifies a message's concrete kind on the wire.
type Type uint16

// Class tags a message for traffic accounting: control-plane messages
// versus bulk data transfers (Figure 2's two arrow kinds).
type Class uint8

const (
	// Control marks small control-plane messages (syscalls, acks,
	// invocations, capability operations).
	Control Class = iota
	// Data marks bulk data transfers (memory copies, storage blocks,
	// argument payloads beyond a trivial size).
	Data
)

// Message is any FractOS protocol message.
type Message interface {
	// WireType identifies the concrete message on the wire.
	WireType() Type
	// Encode appends the message body (excluding the type header).
	Encode(w *Writer)
	// Decode parses the message body.
	Decode(r *Reader) error
}

// Marshal encodes a message with its type header into a new buffer.
func Marshal(m Message) []byte { return AppendMarshal(nil, m) }

// SizeOf returns the encoded size of a message including the type
// header: what the fabric charges for it.
func SizeOf(m Message) int { return len(Marshal(m)) }

// AppendMarshal encodes a message with its type header, appending to
// dst and returning the extended buffer.
func AppendMarshal(dst []byte, m Message) []byte {
	w := Writer{buf: dst}
	MarshalTo(&w, m)
	return w.buf
}

// MarshalTo encodes a message with its type header into w. It is the
// fabric's encode: into a Frame's reused Writer, which allocates nothing
// once it has grown to the message.
func MarshalTo(w *Writer, m Message) {
	w.U16(uint16(m.WireType()))
	m.Encode(w)
}

// Unmarshal decodes a framed message produced by Marshal. The
// allocations are the message struct, copies of its variable-length
// payloads (so the returned message never aliases b and b may be
// reused immediately) — and the Reader: it escapes through the
// m.Decode interface call, so a Reader declared here lives on the
// heap. Per-message callers keep one Reader and use UnmarshalWith.
func Unmarshal(b []byte) (Message, error) {
	return UnmarshalWith(new(Reader), b)
}

// UnmarshalWith is Unmarshal decoding through a caller-owned Reader,
// which it resets first; the Reader holds no reference the caller
// needs to outlive the call. A single-threaded owner (fabric.Net, for
// its bare endpoints) reuses one Reader for every frame and pays
// nothing for it.
func UnmarshalWith(r *Reader, b []byte) (Message, error) {
	t, err := r.header(b)
	if err != nil {
		return nil, err
	}
	m := newMessage(t)
	if m == nil {
		return nil, unknownType(t)
	}
	if err := m.Decode(r); err != nil {
		return nil, err
	}
	return m, nil
}

// header points r at a frame and reads its type.
func (r *Reader) header(frame []byte) (Type, error) {
	r.Reset(frame)
	t := Type(r.U16())
	return t, r.err
}

// unknownType is the error for a frame of type t, which is no message
// type.
func unknownType(t Type) error { return fmt.Errorf("%w: %d", ErrUnknownType, t) }

// Decoder is the borrowing decode of a receiver that is finished with
// each message before it looks at the next (a Controller serving its
// queue, libfractos' receive demultiplexer). It keeps one message value
// per type and one list of each element type and decodes every frame
// into them, so a steady-state Decode allocates nothing.
//
// The returned message is borrowed: its struct and lists are
// overwritten by the Decoder's next Decode and its byte payloads alias
// the frame. Under the race detector both are actively scribbled when
// their time is up (poison_race.go), so a receiver that kept one reads
// garbage in the very test run that exercises it.
type Decoder struct {
	r    Reader
	msgs map[Type]Message
	last Message // what the previous Decode returned, for the race-build scribble
	lists
}

// NewDecoder returns an empty Decoder.
func NewDecoder() *Decoder {
	return &Decoder{msgs: make(map[Type]Message)}
}

// Decode parses frame into the Decoder's storage. It returns exactly
// what Unmarshal(frame) would — the same message, deep-equal, or the
// same error — minus the ownership.
func (d *Decoder) Decode(frame []byte) (Message, error) {
	d.scribble()
	t, err := d.r.header(frame)
	if err != nil {
		return nil, err
	}
	d.r.dec = d
	m, ok := d.msgs[t]
	if !ok {
		m = newMessage(t) // once per type a receiver ever sees
		if m == nil {
			return nil, unknownType(t) // a frame of no message type is refused, not served
		}
		d.msgs[t] = m
	}
	if err := m.Decode(&d.r); err != nil {
		return nil, err
	}
	d.last = m
	return m, nil
}
