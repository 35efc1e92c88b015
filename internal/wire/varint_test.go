package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"fractos/internal/cap"
)

// TestVarintHostile: a varint that runs on past binary.MaxVarintLen64
// bytes, or whose value does not fit the field it decodes, fails the
// read with ErrShort; it is never truncated to the field's width.
func TestVarintHostile(t *testing.T) {
	var w16, w32 Writer
	w16.U64(math.MaxUint16 + 1)
	w32.U64(math.MaxUint32 + 1)
	for _, c := range []struct {
		name  string
		frame []byte
		read  func(r *Reader)
	}{
		{"11-byte varint", append(bytes.Repeat([]byte{0x80}, 10), 1), func(r *Reader) { r.U64() }},
		{"10-byte varint past 64 bits", append(bytes.Repeat([]byte{0xff}, 9), 2), func(r *Reader) { r.U64() }},
		{"U16 field holding 1<<16", w16.Bytes(), func(r *Reader) { r.U16() }},
		{"U32 field holding 1<<32", w32.Bytes(), func(r *Reader) { r.U32() }},
	} {
		var r Reader
		r.Reset(c.frame)
		c.read(&r)
		if r.Err() != ErrShort {
			t.Errorf("%s: err = %v, want ErrShort", c.name, r.Err())
		}
	}

	// The same in a frame: a capability slot number past uint16 refuses
	// the invocation instead of delivering it to slot 0.
	var w Writer
	w.U16(uint16(TReqInvoke))
	w.U64(1)       // Token
	w.U32(2)       // Cid
	w.U16(0)       // no immediates
	w.U16(1 << 1)  // one capability slot, no reply Request
	w.U64(1 << 16) // Slot
	w.U32(3)       // Cid
	if m, err := Unmarshal(w.Bytes()); err != ErrShort {
		t.Errorf("slot 1<<16 decodes to %+v, err %v; want ErrShort", m, err)
	}
}

// TestListCountBeyondFrame holds every list type's count to its encoded
// minimum: a count the rest of the frame cannot hold at that minimum
// per element fails with ErrShort before a Decoder sizes any list, and
// the same count with exactly that many minimal elements behind it
// decodes.
func TestListCountBeyondFrame(t *testing.T) {
	const n = 100
	for _, c := range []struct {
		name     string
		elemSize int
		prefix   func(w *Writer)
		suffix   []byte
		length   func(m Message) int
	}{
		{"imms", immSize, func(w *Writer) {
			w.U16(uint16(TReqInvoke))
			w.U64(1)
			w.U32(2)
		}, []byte{0}, func(m Message) int { return len(m.(*ReqInvoke).Imms) }},
		{"slots", capSlotSize, func(w *Writer) {
			w.U16(uint16(TReqCreate))
			w.U64(1)
			w.U32(2)
			w.U64(3)
			w.U16(0)
		}, nil, func(m Message) int { return len(m.(*ReqCreate).Caps) }},
		{"xfers", capXferSize, func(w *Writer) {
			w.U16(uint16(TCtrlInvoke))
			w.U64(1)
			w.U32(2)
			encodeRef(w, cap.Ref{Ctrl: 3, Obj: 4, Epoch: 5})
			w.U16(0)
		}, nil, func(m Message) int { return len(m.(*CtrlInvoke).Caps) }},
		{"delivered", deliveredSize, func(w *Writer) {
			w.U16(uint16(TDeliver))
			w.U64(1)
			w.U64(2)
			w.Bytes32(nil)
		}, nil, func(m Message) int { return len(m.(*Deliver).Caps) }},
		{"refs", refSize, func(w *Writer) {
			w.U16(uint16(TCtrlCleanup))
			w.U64(1)
		}, nil, func(m Message) int { return len(m.(*CtrlCleanup).Refs) }},
		{"cids", cidSize, func(w *Writer) {
			w.U16(uint16(TDeliverDone))
			w.U64(1)
		}, nil, func(m Message) int { return len(m.(*DeliverDone).Drop) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			var w Writer
			c.prefix(&w)
			w.U16(n)
			head := w.Bytes()[:len(w.Bytes()):len(w.Bytes())]
			short := append(head, make([]byte, n*c.elemSize-1)...)
			whole := append(append(head, make([]byte, n*c.elemSize)...), c.suffix...)
			d := NewDecoder()
			if m, err := d.Decode(short); err != ErrShort {
				t.Errorf("%d elements in %d bytes decode to %+v, err %v; want ErrShort", n, n*c.elemSize-1, m, err)
			}
			if !reflect.DeepEqual(d.lists, lists{}) {
				t.Errorf("a refused count sized a list: %+v", d.lists)
			}
			sameAsUnmarshal(t, d, short)
			m, err := d.Decode(whole)
			if err != nil || c.length(m) != n {
				t.Errorf("%d minimal elements decode to %+v, err %v", n, m, err)
			}
		})
	}
}

// boundaryValues are the values every integer field is set to in turn:
// either side of each varint length step the fields use, and the
// largest value of the field's width.
var boundaryValues = []uint64{0, 127, 128, 16383, 16384, math.MaxUint64}

// intFields returns every integer a message value carries — its own
// fields, a cap.Ref's, every list element's — settable in place.
// Payload bytes are not integers.
func intFields(v reflect.Value) []reflect.Value {
	var out []reflect.Value
	switch v.Kind() {
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out = append(out, v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = append(out, intFields(v.Field(i))...)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint8 {
			for i := 0; i < v.Len(); i++ {
				out = append(out, intFields(v.Index(i))...)
			}
		}
	}
	return out
}

// TestBoundaryRoundTrip: for every sample message and every integer
// field in it, set to each boundary value (capped at its width),
// encode → Unmarshal → encode is byte-identical and Decoder.Decode
// agrees with Unmarshal.
func TestBoundaryRoundTrip(t *testing.T) {
	d := NewDecoder()
	for _, sample := range sampleMessages() {
		nf := len(intFields(reflect.ValueOf(sample).Elem()))
		for i := 0; i < nf; i++ {
			for _, v := range boundaryValues {
				m, err := Unmarshal(Marshal(sample)) // a copy to set the field in
				if err != nil {
					t.Fatalf("%T: %v", sample, err)
				}
				f := intFields(reflect.ValueOf(m).Elem())[i]
				f.SetUint(min(v, math.MaxUint64>>(64-f.Type().Bits())))
				frame := Marshal(m)
				got, err := Unmarshal(frame)
				if err != nil {
					t.Errorf("%T, field %d = %d: unmarshal %x: %v", m, i, f.Uint(), frame, err)
					continue
				}
				if again := Marshal(got); !bytes.Equal(frame, again) {
					t.Errorf("%T, field %d = %d: re-encode mismatch\n in: %x\nout: %x", m, i, f.Uint(), frame, again)
				}
				sameAsUnmarshal(t, d, frame)
			}
		}
	}
}

// BenchmarkCodecRoundTrip encodes every sample message into one reused
// Writer and decodes it through one Decoder, as a fabric Frame and a
// receiver do; one op is the whole sample set. After one warm-up pass
// it allocates nothing.
func BenchmarkCodecRoundTrip(b *testing.B) {
	msgs := sampleMessages()
	var w Writer
	d := NewDecoder()
	roundTrip := func() {
		for _, m := range msgs {
			w.Reset()
			MarshalTo(&w, m)
			if _, err := d.Decode(w.Bytes()); err != nil {
				b.Fatalf("%T: %v", m, err)
			}
		}
	}
	roundTrip()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
