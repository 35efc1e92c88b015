//go:build race

package fabric

import (
	"bytes"
	"testing"

	"fractos/internal/wire"
)

// keeper is the bug the retention poisoning exists to expose: a Handler
// that keeps a borrowed message, and a payload of it, past its Deliver.
type keeper struct {
	dec  *wire.Decoder
	msg  *wire.Deliver
	imms []byte
}

func (h *keeper) Deliver(f *Frame) {
	if m, err := h.dec.Decode(f.Bytes()); err == nil && h.msg == nil {
		h.msg = m.(*wire.Deliver)
		h.imms = h.msg.Imms
	}
	f.Release()
}

// TestRetainedBorrowReadsPoison is the negative test of the race-build
// poisoning, which has no knob and is therefore active in every test
// `make race` runs: the payload a handler kept past Deliver aliases the
// frame, and reads 0xDB once the frame is released; the message it kept
// is the Decoder's, and is scribbled when the next frame is decoded. So
// a receiver that breaks the borrowing rule cannot pass a test that
// looks at what it kept.
func TestRetainedBorrowReadsPoison(t *testing.T) {
	k, n := newNet()
	a := n.Attach("a", Location{Node: 0}, 0)
	h := &keeper{dec: wire.NewDecoder()}
	b := n.AttachHandler("b", Location{Node: 1}, 0, h)
	args := []byte("request-arguments")
	n.Send(a.ID, b.ID, &wire.Deliver{Seq: 1, Tag: 2, Imms: args})
	k.Run()
	if h.msg == nil {
		t.Fatal("nothing was delivered")
	}
	if !bytes.Equal(h.imms, bytes.Repeat([]byte{0xDB}, len(args))) {
		t.Errorf("payload kept past Release reads %q, want 0xDB throughout", h.imms)
	}
	if h.msg.Seq != 1 || h.msg.Tag != 2 {
		t.Errorf("message changed before the Decoder's next decode: %+v", h.msg)
	}
	n.Send(a.ID, b.ID, &wire.Null{Token: 3})
	k.Run()
	if h.msg.Seq != 0xDBDBDBDBDBDBDBDB || h.msg.Tag != 0xDBDBDBDBDBDBDBDB || h.msg.Imms != nil {
		t.Errorf("message kept past the next decode was not scribbled: %+v", h.msg)
	}
}
