package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// sameAsUnmarshal holds one Decode of d to the contract in its doc: what
// Unmarshal returns for the frame, deep-equal, or the same error. The
// Decoder gets a copy of the frame, so a borrowed payload that matches
// did not get there by sharing bytes with the owning decode.
func sameAsUnmarshal(t testing.TB, d *Decoder, frame []byte) {
	t.Helper()
	want, werr := Unmarshal(frame)
	got, gerr := d.Decode(append([]byte(nil), frame...))
	if werr != nil || gerr != nil {
		if werr == nil || gerr == nil || werr.Error() != gerr.Error() ||
			errors.Is(werr, ErrShort) != errors.Is(gerr, ErrShort) ||
			errors.Is(werr, ErrUnknownType) != errors.Is(gerr, ErrUnknownType) {
			t.Fatalf("frame %x: Unmarshal error %v, Decoder error %v", frame, werr, gerr)
		}
		if got != nil {
			t.Fatalf("frame %x: Decoder returned %+v beside error %v", frame, got, gerr)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("frame %x:\nUnmarshal %+v\n  Decoder %+v", frame, want, got)
	}
}

// TestDecoderMatchesUnmarshal is the Decoder's defining property over
// every registered type: one Decoder, reused throughout, decodes the
// populated sample, then the type's zero value — right after a larger
// message of the same type, so a stale list tail or a field the shorter
// decode did not overwrite would show — then the sample again, and
// every truncation of both frames, always agreeing with Unmarshal.
func TestDecoderMatchesUnmarshal(t *testing.T) {
	d := NewDecoder()
	for _, m := range sampleMessages() {
		full := Marshal(m)
		empty := Marshal(reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message))
		for _, frame := range [][]byte{full, empty, full} {
			sameAsUnmarshal(t, d, frame)
			for cut := 0; cut < len(frame); cut++ {
				sameAsUnmarshal(t, d, frame[:cut])
				sameAsUnmarshal(t, d, frame)
			}
		}
	}
}

// TestDecoderMatchesUnmarshalRandom throws random bodies behind every
// registered type header (and a few unregistered ones) at one Decoder.
func TestDecoderMatchesUnmarshalRandom(t *testing.T) {
	var types []Type
	for _, m := range sampleMessages() {
		types = append(types, m.WireType())
	}
	types = append(types, 0, 7, 0xffff)
	rng := rand.New(rand.NewSource(18))
	d := NewDecoder()
	for i := 0; i < 20000; i++ {
		var w Writer
		w.U16(uint16(types[rng.Intn(len(types))]))
		body := make([]byte, rng.Intn(96))
		rng.Read(body)
		if rng.Intn(2) == 0 {
			// Small list counts and lengths, so that whole messages
			// decode instead of running off the end at the first list.
			for j := range body {
				if rng.Intn(3) > 0 {
					body[j] = byte(rng.Intn(3))
				}
			}
		}
		sameAsUnmarshal(t, d, append(w.Bytes(), body...))
	}
}

// FuzzDecoderMatchesUnmarshal decodes two frames back to back through
// one Decoder, so the fuzzer can search for a first message whose
// leftovers corrupt the second. Seeded from the round-trip corpus.
func FuzzDecoderMatchesUnmarshal(f *testing.F) {
	msgs := sampleMessages()
	for i, m := range msgs {
		f.Add(Marshal(m), Marshal(msgs[(i+1)%len(msgs)]))
		f.Add(Marshal(m), Marshal(reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message)))
	}
	f.Fuzz(func(t *testing.T, first, second []byte) {
		d := NewDecoder()
		sameAsUnmarshal(t, d, first)
		sameAsUnmarshal(t, d, second)
		sameAsUnmarshal(t, d, first)
	})
}

// TestDecoderReusesItsStorage pins the other half of the contract: the
// second decode of a type hands back the same struct and the same list
// storage — that is what makes a borrowed message cheap, and why it
// must not be kept.
func TestDecoderReusesItsStorage(t *testing.T) {
	m := &CtrlInvoke{Token: 1, Imms: []ImmArg{{Offset: 0, Data: []byte("abc")}},
		Caps: []CapXfer{{Slot: 1}, {Slot: 2}}}
	frame := Marshal(m)
	d := NewDecoder()
	a, err := d.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	ai := a.(*CtrlInvoke)
	imm0, cap0 := &ai.Imms[0], &ai.Caps[0]
	b, err := d.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	bi := b.(*CtrlInvoke)
	if a != b || imm0 != &bi.Imms[0] || cap0 != &bi.Caps[0] {
		t.Fatal("second decode of the same type did not reuse the Decoder's struct and lists")
	}
}
