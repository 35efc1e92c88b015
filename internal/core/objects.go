package core

import (
	"fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/wire"
)

// memObject is the owner-side record of a Memory object: a window into
// a Process's RDMA-registered arena.
type memObject struct {
	owner  cap.ProcID
	ep     fabric.EndpointID // endpoint whose arena holds the bytes
	base   uint64            // offset within the arena
	size   uint64
	rights cap.Rights
}

// reqObject is the owner-side record of a Request object: an RPC
// endpoint with accumulated, write-once arguments (§3.4). Capability
// arguments are kept in their transfer form, sorted by slot, so an
// invocation delivers them in slot order without sorting or copying.
//
// A reply Request (wire.ReplyTag in the tag) is a continuation its
// provider reuses from call to call, so its delegation is single-use: it
// delivers only while armed. The provider arms it by passing it as an
// invocation argument — always at this, its own Controller — which also
// renames the object (cap.Tree.Rekey), so an earlier delegation names
// nothing; one delivery disarms it (DESIGN.md, "Call convention").
type reqObject struct {
	provider cap.ProcID
	tag      uint64
	imms     immBuf
	caps     []wire.CapXfer // ascending Slot, one entry per slot
	armed    bool           // reply Requests: one delivery is owed
	call     uint64         // reply Requests: the pending invocation the delivery answers (awaitReply)
}

// reply reports whether r is a reply Request.
func (r *reqObject) reply() bool { return r.tag&wire.ReplyTag != 0 }

// clone deep-copies the request for derivation. A child of a reply
// Request is one too, and is never armed (ownReply): it delivers nothing.
func (r *reqObject) clone() *reqObject {
	return &reqObject{provider: r.provider, tag: r.tag, imms: r.imms.clone(),
		caps: append([]wire.CapXfer(nil), r.caps...)}
}

// applyImms refines the immediate buffer. Already-written bytes are
// immutable: overlap fails with StatusImmutable.
func (r *reqObject) applyImms(imms []wire.ImmArg) wire.Status {
	return r.imms.apply(imms)
}

// applyCaps refines the capability slots; occupied slots are
// immutable.
func (r *reqObject) applyCaps(args []wire.CapXfer) wire.Status {
	var st wire.Status
	r.caps, st = mergeCaps(r.caps, args)
	return st
}

// mergeCaps inserts args into the slot-sorted list caps, in order,
// growing it in place; a slot that is already occupied — by a preset
// argument or by an earlier element of args — is StatusImmutable.
// Requests carry a handful of slots, so insertion is a short shift.
func mergeCaps(caps, args []wire.CapXfer) ([]wire.CapXfer, wire.Status) {
	for _, a := range args {
		i := len(caps)
		for i > 0 && caps[i-1].Slot >= a.Slot {
			i--
		}
		if i < len(caps) && caps[i].Slot == a.Slot {
			return caps, wire.StatusImmutable
		}
		caps = append(caps, wire.CapXfer{})
		copy(caps[i+1:], caps[i:])
		caps[i] = a
	}
	return caps, wire.StatusOK
}

// maxImmBuf bounds a Request's immediate-argument buffer.
const maxImmBuf = 1 << 20

// immBuf is a write-once byte buffer: each byte may be set exactly
// once (the §3.4 security property that initialized arguments cannot
// be changed, only extended).
type immBuf struct {
	data []byte
	set  []bool
}

func (b *immBuf) clone() immBuf {
	var n immBuf
	n.copyFrom(b)
	return n
}

// copyFrom makes b a copy of src, reusing b's storage: an invocation
// merges its arguments on a Controller-owned scratch buffer instead of
// cloning the Request.
func (b *immBuf) copyFrom(src *immBuf) {
	b.data = append(b.data[:0], src.data...)
	b.set = append(b.set[:0], src.set...)
}

// apply writes each immediate argument in order, stopping at the
// first one the write-once rule rejects.
func (b *immBuf) apply(imms []wire.ImmArg) wire.Status {
	for _, a := range imms {
		if s := b.write(int(a.Offset), a.Data); s != wire.StatusOK {
			return s
		}
	}
	return wire.StatusOK
}

// write stores p at off, failing with StatusImmutable if any target
// byte was already written, or StatusBounds if the buffer would exceed
// maxImmBuf.
func (b *immBuf) write(off int, p []byte) wire.Status {
	if off < 0 || off+len(p) > maxImmBuf {
		return wire.StatusBounds
	}
	if need := off + len(p); need > len(b.data) {
		b.data = append(b.data, make([]byte, need-len(b.data))...)
		b.set = append(b.set, make([]bool, need-len(b.set))...)
	}
	for i := range p {
		if b.set[off+i] {
			return wire.StatusImmutable
		}
	}
	copy(b.data[off:], p)
	for i := range p {
		b.set[off+i] = true
	}
	return wire.StatusOK
}

// bytes returns the merged immediate buffer.
func (b *immBuf) bytes() []byte { return b.data }
