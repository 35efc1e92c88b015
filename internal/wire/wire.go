// Package wire defines the FractOS on-wire protocol: a compact binary
// codec and the message set exchanged between Processes, Controllers,
// and the bootstrap services.
//
// Every message that crosses the fabric is really encoded to bytes and
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
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShort is returned when decoding runs past the end of the buffer.
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
//
//fractos:hotpath
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) } // fractos:alloc-ok a reused Writer keeps the capacity of its largest message

// U16 appends a little-endian uint16.
//
//fractos:hotpath
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
//
//fractos:hotpath
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a little-endian uint64.
//
//fractos:hotpath
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Bool appends a boolean as one byte.
//
//fractos:hotpath
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Bytes32 appends a length-prefixed (uint32) byte slice.
//
//fractos:hotpath
func (w *Writer) Bytes32(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...) // fractos:alloc-ok a reused Writer keeps the capacity of its largest message
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
//
//fractos:hotpath
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

//fractos:hotpath
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
//
//fractos:hotpath
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
//
//fractos:hotpath
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
//
//fractos:hotpath
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
//
//fractos:hotpath
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bool reads a boolean.
//
//fractos:hotpath
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes32 reads a length-prefixed byte slice. The result is a copy so
// callers may retain it — except under a Decoder, where it aliases the
// buffer (capacity clipped, so appending to it cannot write the frame).
func (r *Reader) Bytes32() []byte {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > r.Remaining() {
		r.err = ErrShort
		return nil
	}
	b := r.take(n)
	if r.dec != nil {
		return b[:n:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

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
//
//fractos:hotpath
func AppendMarshal(dst []byte, m Message) []byte {
	w := Writer{buf: dst}
	MarshalTo(&w, m)
	return w.buf
}

// MarshalTo encodes a message with its type header into w. It is the
// fabric's encode: into a Frame's reused Writer, which allocates nothing
// once it has grown to the message.
//
//fractos:hotpath
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
//
//fractos:hotpath
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
//
//fractos:hotpath
func (d *Decoder) Decode(frame []byte) (Message, error) {
	d.scribble()
	t, err := d.r.header(frame)
	if err != nil {
		return nil, err
	}
	d.r.dec = d
	m, ok := d.msgs[t]
	if !ok {
		m = newMessage(t) // fractos:alloc-ok once per type a receiver ever sees
		if m == nil {
			return nil, unknownType(t) // fractos:alloc-ok a frame of no message type is refused, not served
		}
		d.msgs[t] = m
	}
	if err := m.Decode(&d.r); err != nil {
		return nil, err
	}
	d.last = m
	return m, nil
}
