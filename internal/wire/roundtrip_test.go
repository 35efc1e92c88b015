package wire

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"fractos/internal/cap"
)

// TestEncodedSizeMatchesEncode pins the contract the zero-alloc paths
// rely on: EncodedSize must equal the exact number of body bytes
// Encode produces, for every registered message type. Marshal,
// AppendMarshal, MarshalTo, and the fabric's frame pre-sizing all
// allocate from this number, so a drift would silently reintroduce
// buffer growth (or worse, under-report traffic in SizeOf).
func TestEncodedSizeMatchesEncode(t *testing.T) {
	for _, m := range sampleMessages() {
		var w Writer
		m.Encode(&w)
		if got, want := m.EncodedSize(), w.Len(); got != want {
			t.Errorf("%T: EncodedSize()=%d, Encode produced %d bytes", m, got, want)
		}
		if got, want := SizeOf(m), 2+w.Len(); got != want {
			t.Errorf("%T: SizeOf()=%d, framed length %d", m, got, want)
		}
	}
}

// TestReencodeByteEquality is the round-trip property under pooled
// writers: encode → decode → re-encode must be byte-identical, with
// every encode going through a Writer obtained from (and released back
// to) the pool. Running all messages twice interleaves pool reuse, so
// a stale-buffer bug — a pooled Writer leaking bytes from its previous
// life — would show up as a mismatch.
func TestReencodeByteEquality(t *testing.T) {
	for round := 0; round < 2; round++ {
		for _, m := range sampleMessages() {
			w1 := GetWriter(SizeOf(m))
			MarshalTo(w1, m)
			frame := append([]byte(nil), w1.Bytes()...)
			w1.Release()

			decoded, err := Unmarshal(frame)
			if err != nil {
				t.Fatalf("round %d %T: unmarshal: %v", round, m, err)
			}
			w2 := GetWriter(SizeOf(decoded))
			MarshalTo(w2, decoded)
			if !bytes.Equal(frame, w2.Bytes()) {
				t.Errorf("round %d %T: re-encode mismatch\n in: %x\nout: %x",
					round, m, frame, w2.Bytes())
			}
			w2.Release()
		}
	}
}

// TestAppendMarshalMatchesMarshal checks the hot-path encoder against
// the reference: appending into a reused buffer must produce the same
// bytes as a fresh Marshal, and reuse must not leak previous contents.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	var buf []byte
	for _, m := range sampleMessages() {
		want := Marshal(m)
		buf = AppendMarshal(buf[:0], m)
		if !bytes.Equal(want, buf) {
			t.Errorf("%T: AppendMarshal != Marshal\nwant %x\n got %x", m, want, buf)
		}
	}
}

// TestInvokeRoundTripRandomized hammers the highest-volume message
// (request_invoke) with random payload shapes: arbitrary immediate
// arguments and capability slots must round-trip byte-identically and
// honor EncodedSize exactly.
func TestInvokeRoundTripRandomized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &ReqInvoke{Token: rng.Uint64(), Cid: cap.CapID(rng.Uint32())}
		for i := 0; i < rng.Intn(4); i++ {
			data := make([]byte, rng.Intn(200))
			rng.Read(data)
			m.Imms = append(m.Imms, ImmArg{Offset: uint32(rng.Intn(512)), Data: data})
		}
		for i := 0; i < rng.Intn(4); i++ {
			m.Caps = append(m.Caps, CapSlot{Slot: uint16(rng.Intn(8)), Cid: cap.CapID(rng.Uint32())})
		}

		w := GetWriter(SizeOf(m))
		MarshalTo(w, m)
		if w.Len() != SizeOf(m) {
			t.Logf("seed %d: SizeOf=%d, encoded %d", seed, SizeOf(m), w.Len())
			return false
		}
		frame := append([]byte(nil), w.Bytes()...)
		w.Release()

		decoded, err := Unmarshal(frame)
		if err != nil {
			t.Logf("seed %d: unmarshal: %v", seed, err)
			return false
		}
		again := Marshal(decoded)
		if !bytes.Equal(frame, again) {
			t.Logf("seed %d: re-encode mismatch", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedMessageDoesNotAliasFrame verifies the two ownership rules
// frame pooling depends on. After Unmarshal, mutating the frame buffer
// must not affect the decoded message's payloads: the owning decode
// shares nothing with the frame. After Decoder.Decode it must: a
// borrowed message's payload is the frame's bytes (that is the
// documented contract — valid until the frame is released), and
// appending to it must not grow into the frame behind it.
func TestDecodedMessageDoesNotAliasFrame(t *testing.T) {
	m := &ReqInvoke{Token: 7, Cid: 9,
		Imms: []ImmArg{{Offset: 4, Data: []byte("payload-bytes")}},
		Caps: []CapSlot{{Slot: 0, Cid: 3}}}
	frame := Marshal(m)
	decodedAny, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	borrowedAny, err := NewDecoder().Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	decoded, borrowed := decodedAny.(*ReqInvoke), borrowedAny.(*ReqInvoke)
	want := append([]byte(nil), decoded.Imms[0].Data...)
	if !bytes.Equal(borrowed.Imms[0].Data, want) {
		t.Fatalf("borrowed payload %x, want %x", borrowed.Imms[0].Data, want)
	}
	for i := range frame {
		frame[i] = 0xFF
	}
	if !bytes.Equal(decoded.Imms[0].Data, want) {
		t.Fatalf("decoded payload aliases the frame: %x", decoded.Imms[0].Data)
	}
	if !bytes.Equal(borrowed.Imms[0].Data, bytes.Repeat([]byte{0xFF}, len(want))) {
		t.Fatalf("borrowed payload does not alias the frame: %x", borrowed.Imms[0].Data)
	}
	if d := borrowed.Imms[0].Data; capacity(d) != len(d) {
		t.Fatalf("borrowed payload has the %d frame bytes behind it as spare capacity", capacity(d)-len(d))
	}
}
