package wire

import (
	"math"
	"slices"

	"fractos/internal/cap"
)

// Message type identifiers. Grouped by direction:
// 1xx Process→Controller (syscalls), 2xx Controller→Process,
// 3xx Controller↔Controller, 9xx generic/raw.
const (
	TMemCreate Type = 100 + iota
	TMemDiminish
	TMemCopy
	TReqCreate
	TReqInvoke
	TCapRevtree
	TCapRevoke
	TCapDrop
	TMonitorDelegate
	TMonitorReceive
	TDeliverDone
	TProcBye
	TNull
)

const (
	TCompletion Type = 200 + iota
	TDeliver
	TMonitorCB
)

const (
	TCtrlDeriveMem Type = 300 + iota
	TCtrlDeriveReq
	TCtrlRevtree
	TCtrlRevoke
	TCtrlValidate
	TCtrlValInfo
	TCtrlInvoke
	TCtrlAck
	TCtrlCleanup
	_ // 309, 310: retired; reserved so later types keep their numbers
	_
	TCtrlWatch
	TCtrlNotify
	TCtrlEpoch
)

// 4xx: the node-monitoring service's heartbeat protocol (§3.6's
// external monitor, upgraded from an explicitly driven stub to a
// probe-based failure detector in docs/FAULTS.md).
const (
	TWatchPing Type = 400 + iota
	TWatchPong
)

// TRaw is a free-form message used by the baseline systems (rCUDA,
// NFS, NVMe-oF models) that share the fabric but not the FractOS
// protocol.
const TRaw Type = 900

// newMessage returns a zero message of type t to decode into, nil if t
// is no message type. The four invocation messages come allocated
// together with room for one immediate argument — what nearly every
// invocation carries — which decodeImms fills, so that list costs no
// allocation of its own.
func newMessage(t Type) Message {
	switch t {
	case TMemCreate:
		return new(MemCreate)
	case TMemDiminish:
		return new(MemDiminish)
	case TMemCopy:
		return new(MemCopy)
	case TReqCreate:
		b := new(struct {
			m   ReqCreate
			imm [1]ImmArg
		})
		b.m.Imms = b.imm[:0]
		return &b.m
	case TReqInvoke:
		b := new(struct {
			m   ReqInvoke
			imm [1]ImmArg
		})
		b.m.Imms = b.imm[:0]
		return &b.m
	case TCapRevtree:
		return new(CapRevtree)
	case TCapRevoke:
		return new(CapRevoke)
	case TCapDrop:
		return new(CapDrop)
	case TMonitorDelegate:
		return new(MonitorDelegate)
	case TMonitorReceive:
		return new(MonitorReceive)
	case TDeliverDone:
		return new(DeliverDone)
	case TProcBye:
		return new(ProcBye)
	case TNull:
		return new(Null)
	case TCompletion:
		return new(Completion)
	case TDeliver:
		return new(Deliver)
	case TMonitorCB:
		return new(MonitorCB)
	case TCtrlDeriveMem:
		return new(CtrlDeriveMem)
	case TCtrlDeriveReq:
		b := new(struct {
			m   CtrlDeriveReq
			imm [1]ImmArg
		})
		b.m.Imms = b.imm[:0]
		return &b.m
	case TCtrlRevtree:
		return new(CtrlRevtree)
	case TCtrlRevoke:
		return new(CtrlRevoke)
	case TCtrlValidate:
		return new(CtrlValidate)
	case TCtrlValInfo:
		return new(CtrlValInfo)
	case TCtrlInvoke:
		b := new(struct {
			m   CtrlInvoke
			imm [1]ImmArg
		})
		b.m.Imms = b.imm[:0]
		return &b.m
	case TCtrlAck:
		return new(CtrlAck)
	case TCtrlCleanup:
		return new(CtrlCleanup)
	case TCtrlWatch:
		return new(CtrlWatch)
	case TCtrlNotify:
		return new(CtrlNotify)
	case TCtrlEpoch:
		return new(CtrlEpoch)
	case TWatchPing:
		return new(WatchPing)
	case TWatchPong:
		return new(WatchPong)
	case TRaw:
		return new(Raw)
	}
	return nil
}

// ---- shared argument encodings ----

// lists is a Decoder's list storage: one list per element type, which
// is all a message can carry of each.
type lists struct {
	imms  []ImmArg
	slots []CapSlot
	xfers []CapXfer
	dcaps []DeliveredCap
	refs  []cap.Ref
	cids  []cap.CapID
}

// count reads a list's length, rejecting one the rest of the frame
// cannot hold at elemSize encoded bytes each before anything is sized
// by it: a corrupt count must not cost (or, in a Decoder, pin) a 64 Ki
// element list.
func count(r *Reader, elemSize int) int { return fits(r, int(r.U16()), elemSize) }

func fits(r *Reader, n, elemSize int) int {
	if r.err == nil && n*elemSize > r.Remaining() {
		r.err = ErrShort
	}
	return n
}

// Encoded minimums of the list elements count checks a length against,
// one byte per varint integer, U8 and Bool: a cap.Ref (Ctrl, Obj,
// Epoch), a capability slot (slot + cid), a capability in transfer
// (slot + ref + kind + rights + size + 2 bools), a delivered capability
// (slot + cid + kind + rights + size), an immediate argument (offset +
// the length of its bytes) and a cid.
const (
	refSize       = 1 + 1 + 1
	capSlotSize   = 1 + 1
	capXferSize   = 1 + refSize + 1 + 1 + 1 + 1 + 1
	deliveredSize = 1 + 1 + 1 + 1 + 1
	immSize       = 1 + 1
	cidSize       = 1
)

// list returns the n-element list a list decoder fills in: the
// Decoder's own, grown if need be and kept for the next frame (own is
// nil without a Decoder), else spare, else — when that is too small — a
// fresh one.
func list[T any](own *[]T, spare []T, n int) []T {
	if own != nil {
		spare = *own
	}
	if n > capacity(spare) {
		spare = make([]T, n)
	}
	spare = spare[:n]
	if own != nil {
		*own = spare
	}
	return spare
}

// ImmArg writes Data into a Request's immediate-argument buffer at
// Offset. Once written, those bytes are immutable (§3.4).
type ImmArg struct {
	Offset uint32
	Data   []byte
}

// KeepImms copies imms — the list and its bytes — into dst and buf, grown
// if need be, and returns the copy. buf is sized before the first element
// points into it, so it never moves under them.
func KeepImms(dst []ImmArg, buf []byte, imms []ImmArg) ([]ImmArg, []byte) {
	total := 0
	for _, a := range imms {
		total += len(a.Data)
	}
	buf, dst = slices.Grow(buf[:0], total), dst[:0]
	for _, a := range imms {
		at := len(buf)
		buf = append(buf, a.Data...)
		dst = append(dst, ImmArg{Offset: a.Offset, Data: buf[at:len(buf):len(buf)]})
	}
	return dst, buf
}

func encodeImms(w *Writer, imms []ImmArg) {
	w.U16(uint16(len(imms)))
	for _, a := range imms {
		w.U32(a.Offset)
		w.Bytes32(a.Data)
	}
}

// decodeImms reads an immediate-arg list. An owning decode fills spare
// when its capacity suffices — the room for one immediate newMessage
// gives the invocation messages; a message built any other way has no
// spare room and gets a fresh slice.
func decodeImms(r *Reader, spare []ImmArg) []ImmArg {
	n := count(r, immSize)
	if n == 0 || r.Err() != nil {
		return nil
	}
	var own *[]ImmArg
	if r.dec != nil {
		own = &r.dec.imms
	}
	imms := list(own, spare, n)
	for i := range imms {
		imms[i] = ImmArg{Offset: r.U32(), Data: r.Bytes32()}
	}
	return imms
}

// dataThreshold is the immediate-payload size above which an invocation
// or delivery counts as a Data transfer for traffic accounting.
const dataThreshold = 256

// ClassOf is m's traffic class. A Raw says what it is; a Deliver,
// ReqCreate, ReqInvoke, CtrlDeriveReq or CtrlInvoke whose immediates
// carry more than dataThreshold bytes is Data; everything else is
// Control.
func ClassOf(m Message) Class {
	var imms []ImmArg
	n := 0
	switch m := m.(type) {
	case *Raw:
		if m.IsData {
			return Data
		}
	case *Deliver:
		n = len(m.Imms)
	case *ReqCreate:
		imms = m.Imms
	case *ReqInvoke:
		imms = m.Imms
	case *CtrlDeriveReq:
		imms = m.Imms
	case *CtrlInvoke:
		imms = m.Imms
	}
	for _, a := range imms {
		n += len(a.Data)
	}
	if n > dataThreshold {
		return Data
	}
	return Control
}

// Purposes are Purpose's classes; data is the RDMA transfers.
var Purposes = []string{"syscall", "completion", "delivery", "delivery-done", "peer request",
	"peer ack", "validation", "cleanup", "monitor", "data"}

// Purpose is what a message of type t is for (docs/PROTOCOL.md § 5); a
// baseline's Raw is its client/server traffic, answers and payloads too,
// and type 0, a fabric trace's RDMA transfer, is data.
func (t Type) Purpose() string {
	switch {
	case t == 0:
		return "data"
	case t == TDeliverDone:
		return "delivery-done"
	case t < TCompletion:
		return "syscall"
	case t == TCompletion, t == TDeliver:
		return Purposes[t-TCompletion+1]
	case t == TCtrlAck:
		return "peer ack"
	case t == TCtrlValidate, t == TCtrlValInfo:
		return "validation"
	case t == TCtrlCleanup:
		return "cleanup"
	case t >= TCtrlDeriveMem && t <= TCtrlInvoke, t == TRaw:
		return "peer request"
	}
	return "monitor" // MonitorCB, CtrlWatch, CtrlNotify, CtrlEpoch, WatchPing, WatchPong
}

// CapSlot binds a Process-local capability (cid) to a Request argument
// slot in a syscall.
type CapSlot struct {
	Slot uint16
	Cid  cap.CapID
}

// encodeCapSlots writes a slot list; its count goes before it, with a
// flag in ReqInvoke's (Writer.flagged).
func encodeCapSlots(w *Writer, cs []CapSlot) {
	for _, c := range cs {
		w.U16(c.Slot)
		w.U32(uint32(c.Cid))
	}
}

// decodeCapSlots reads n capability slots, counted already.
func decodeCapSlots(r *Reader, n int) []CapSlot {
	if n == 0 || r.Err() != nil {
		return nil
	}
	var own *[]CapSlot
	if r.dec != nil {
		own = &r.dec.slots
	}
	cs := list(own, nil, n)
	for i := range cs {
		cs[i] = CapSlot{Slot: r.U16(), Cid: cap.CapID(r.U32())}
	}
	return cs
}

// CapXfer is a capability in transit between Controllers: the global
// reference plus the rights and metadata the receiver should install.
type CapXfer struct {
	Slot      uint16
	Ref       cap.Ref
	Kind      cap.Kind
	Rights    cap.Rights
	Size      uint64
	Monitored bool
	// Leased marks a monitor_delegatee child created for the receiver;
	// the receiving Controller revokes it if the receiver fails.
	Leased bool
	// Once marks an armed reply Request, good for one delivery: the
	// holder's Controller drops the entry when it forwards an invocation
	// through it. It travels in the spare top bit of the Rights byte.
	Once bool
	// Relayed marks a Once capability passed on from a delegation, not
	// armed by the invocation carrying it. It travels in the next bit.
	Relayed bool
}

// xferOnce and xferRelayed are CapXfer's bits in the byte of its Rights.
const xferOnce, xferRelayed = 0x80, 0x40

func encodeRef(w *Writer, r cap.Ref) {
	w.U32(uint32(r.Ctrl))
	w.U64(uint64(r.Obj))
	w.U32(uint32(r.Epoch))
}

func decodeRef(r *Reader) cap.Ref {
	return cap.Ref{
		Ctrl:  cap.ControllerID(r.U32()),
		Obj:   cap.ObjectID(r.U64()),
		Epoch: cap.Epoch(r.U32()),
	}
}

func decodeRefs(r *Reader) []cap.Ref {
	n := count(r, refSize)
	if n == 0 || r.Err() != nil {
		return nil
	}
	var own *[]cap.Ref
	if r.dec != nil {
		own = &r.dec.refs
	}
	refs := list(own, nil, n)
	for i := range refs {
		refs[i] = decodeRef(r)
	}
	return refs
}

func encodeCapXfers(w *Writer, xs []CapXfer) {
	w.U16(uint16(len(xs)))
	for _, x := range xs {
		w.U16(x.Slot)
		encodeRef(w, x.Ref)
		w.U8(uint8(x.Kind))
		b := uint8(x.Rights) &^ (xferOnce | xferRelayed)
		if x.Once {
			b |= xferOnce
		}
		if x.Relayed {
			b |= xferRelayed
		}
		w.U8(b)
		w.U64(x.Size)
		w.Bool(x.Monitored)
		w.Bool(x.Leased)
	}
}

func decodeCapXfers(r *Reader) []CapXfer {
	n := count(r, capXferSize)
	if n == 0 || r.Err() != nil {
		return nil
	}
	var own *[]CapXfer
	if r.dec != nil {
		own = &r.dec.xfers
	}
	xs := list(own, nil, n)
	for i := range xs {
		slot, ref, kind, b := r.U16(), decodeRef(r), cap.Kind(r.U8()), r.U8()
		xs[i] = CapXfer{
			Slot: slot, Ref: ref, Kind: kind,
			Rights:    cap.Rights(b &^ (xferOnce | xferRelayed)),
			Size:      r.U64(),
			Monitored: r.Bool(),
			Leased:    r.Bool(),
			Once:      b&xferOnce != 0,
			Relayed:   b&xferRelayed != 0,
		}
	}
	return xs
}

// DeliveredCap is a capability as it appears in a request_receive
// descriptor: already installed in the receiver's capability space.
type DeliveredCap struct {
	Slot   uint16
	Cid    cap.CapID
	Kind   cap.Kind
	Rights cap.Rights
	Size   uint64
}

func encodeDelivered(w *Writer, ds []DeliveredCap) {
	w.U16(uint16(len(ds)))
	for _, d := range ds {
		w.U16(d.Slot)
		w.U32(uint32(d.Cid))
		w.U8(uint8(d.Kind))
		w.U8(uint8(d.Rights))
		w.U64(d.Size)
	}
}

func decodeDelivered(r *Reader) []DeliveredCap {
	n := count(r, deliveredSize)
	if n == 0 || r.Err() != nil {
		return nil
	}
	var own *[]DeliveredCap
	if r.dec != nil {
		own = &r.dec.dcaps
	}
	ds := list(own, nil, n)
	for i := range ds {
		ds[i] = DeliveredCap{
			Slot:   r.U16(),
			Cid:    cap.CapID(r.U32()),
			Kind:   cap.Kind(r.U8()),
			Rights: cap.Rights(r.U8()),
			Size:   r.U64(),
		}
	}
	return ds
}

// ---- Process → Controller (syscalls, Table 1) ----

// MemCreate registers [Base, Base+Size) of the calling Process's
// arena as a Memory object (memory_create).
type MemCreate struct {
	Token uint64
	Base  uint64
	Size  uint64
	Perms cap.Rights
}

func (*MemCreate) WireType() Type { return TMemCreate }
func (m *MemCreate) Encode(w *Writer) {
	w.U64(m.Token)
	w.U64(m.Base)
	w.U64(m.Size)
	w.U8(uint8(m.Perms))
}
func (m *MemCreate) Decode(r *Reader) error {
	m.Token, m.Base, m.Size, m.Perms = r.U64(), r.U64(), r.U64(), cap.Rights(r.U8())
	return r.Err()
}

// MemDiminish derives a smaller/weaker view of a Memory capability
// (memory_diminish).
type MemDiminish struct {
	Token  uint64
	Cid    cap.CapID
	Offset uint64
	Size   uint64
	Drop   cap.Rights
}

func (*MemDiminish) WireType() Type { return TMemDiminish }
func (m *MemDiminish) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Cid))
	w.U64(m.Offset)
	w.U64(m.Size)
	w.U8(uint8(m.Drop))
}
func (m *MemDiminish) Decode(r *Reader) error {
	m.Token, m.Cid = r.U64(), cap.CapID(r.U32())
	m.Offset, m.Size, m.Drop = r.U64(), r.U64(), cap.Rights(r.U8())
	return r.Err()
}

// MemCopy copies Len bytes at SrcOff of Memory SrcCid to DstOff of
// DstCid (memory_copy). Len 0 is the whole source object, which then
// takes both offsets 0: Table 1's form.
type MemCopy struct {
	Token  uint64
	SrcCid cap.CapID
	DstCid cap.CapID
	SrcOff uint64
	DstOff uint64
	Len    uint64
}

func (*MemCopy) WireType() Type { return TMemCopy }
func (m *MemCopy) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.SrcCid))
	w.U32(uint32(m.DstCid))
	w.U64(m.SrcOff)
	w.U64(m.DstOff)
	w.U64(m.Len)
}
func (m *MemCopy) Decode(r *Reader) error {
	m.Token, m.SrcCid, m.DstCid = r.U64(), cap.CapID(r.U32()), cap.CapID(r.U32())
	m.SrcOff, m.DstOff, m.Len = r.U64(), r.U64(), r.U64()
	return r.Err()
}

// ReqCreate creates a new Request (Parent == NilCap) provided by the
// caller, or derives/refines an existing one (request_create). Tag is
// delivered back to the provider on every invocation of the request
// (and its derivations) so services can dispatch; it is only
// meaningful for new Requests. A Tag with ReplyTag set creates a reply
// Request.
type ReqCreate struct {
	Token  uint64
	Parent cap.CapID
	Tag    uint64
	Imms   []ImmArg
	Caps   []CapSlot
}

// ReplyTag in a new Request's tag makes it a reply Request: the
// continuation libfractos' Call passes along and reuses from call to
// call. Its owner delivers an invocation only while the Request is armed
// — the provider arms it by passing it as an invocation argument, under
// a new name each time, one delivery disarms it — so each delegation is
// good for one reply, and for no later call's (DESIGN.md, "Call
// convention"). Bit 34, above proc.Process.NewTag's tags, takes 5 bytes.
const ReplyTag uint64 = 1 << 34

func (*ReqCreate) WireType() Type { return TReqCreate }
func (m *ReqCreate) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Parent))
	w.U64(m.Tag)
	encodeImms(w, m.Imms)
	w.U16(uint16(len(m.Caps)))
	encodeCapSlots(w, m.Caps)
}
func (m *ReqCreate) Decode(r *Reader) error {
	m.Token, m.Parent, m.Tag = r.U64(), cap.CapID(r.U32()), r.U64()
	m.Imms = decodeImms(r, m.Imms)
	m.Caps = decodeCapSlots(r, count(r, capSlotSize))
	return r.Err()
}

// ReqInvoke invokes a Request (request_invoke). Imms/Caps are
// invoke-time refinements applied on top of the Request's preset
// arguments without mutating the Request object itself. Reply, if set,
// declares the caller's reply Request that answers it (CallWith); a flag
// in the Caps count says it follows the slots.
type ReqInvoke struct {
	Token uint64
	Cid   cap.CapID
	Imms  []ImmArg
	Caps  []CapSlot
	Reply cap.CapID
}

func (*ReqInvoke) WireType() Type { return TReqInvoke }
func (m *ReqInvoke) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Cid))
	encodeImms(w, m.Imms)
	w.flagged(uint64(len(m.Caps)), m.Reply != cap.NilCap)
	encodeCapSlots(w, m.Caps)
	if m.Reply != cap.NilCap {
		w.U32(uint32(m.Reply))
	}
}
func (m *ReqInvoke) Decode(r *Reader) error {
	m.Token, m.Cid = r.U64(), cap.CapID(r.U32())
	m.Imms = decodeImms(r, m.Imms)
	n, reply := r.flagged(math.MaxUint16)
	m.Caps = decodeCapSlots(r, fits(r, int(n), capSlotSize))
	m.Reply = cap.NilCap
	if reply {
		m.Reply = cap.CapID(r.U32())
	}
	return r.Err()
}

// CapRevtree creates a new revocation subtree entry for a capability
// (cap_create_revtree): a separately revocable child object.
type CapRevtree struct {
	Token uint64
	Cid   cap.CapID
}

func (*CapRevtree) WireType() Type { return TCapRevtree }
func (m *CapRevtree) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Cid))
}
func (m *CapRevtree) Decode(r *Reader) error {
	m.Token, m.Cid = r.U64(), cap.CapID(r.U32())
	return r.Err()
}

// CapRevoke revokes a capability: the referenced object and all its
// revocation-tree descendants are invalidated at the owner
// (cap_revoke).
type CapRevoke struct {
	Token uint64
	Cid   cap.CapID
}

func (*CapRevoke) WireType() Type { return TCapRevoke }
func (m *CapRevoke) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Cid))
}
func (m *CapRevoke) Decode(r *Reader) error {
	m.Token, m.Cid = r.U64(), cap.CapID(r.U32())
	return r.Err()
}

// CapDrop discards the calling Process's capability-space entry
// without revoking the object.
type CapDrop struct {
	Token uint64
	Cid   cap.CapID
}

func (*CapDrop) WireType() Type { return TCapDrop }
func (m *CapDrop) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Cid))
}
func (m *CapDrop) Decode(r *Reader) error {
	m.Token, m.Cid = r.U64(), cap.CapID(r.U32())
	return r.Err()
}

// MonitorDelegate registers a callback that fires when all immediate
// children delegated from Cid have been invalidated (§3.6).
type MonitorDelegate struct {
	Token    uint64
	Cid      cap.CapID
	Callback uint64
}

func (*MonitorDelegate) WireType() Type { return TMonitorDelegate }
func (m *MonitorDelegate) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Cid))
	w.U64(m.Callback)
}
func (m *MonitorDelegate) Decode(r *Reader) error {
	m.Token, m.Cid, m.Callback = r.U64(), cap.CapID(r.U32()), r.U64()
	return r.Err()
}

// MonitorReceive registers a callback that fires when Cid's object is
// invalidated — by explicit revocation or by failure (§3.6).
type MonitorReceive struct {
	Token    uint64
	Cid      cap.CapID
	Callback uint64
}

func (*MonitorReceive) WireType() Type { return TMonitorReceive }
func (m *MonitorReceive) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Cid))
	w.U64(m.Callback)
}
func (m *MonitorReceive) Decode(r *Reader) error {
	m.Token, m.Cid, m.Callback = r.U64(), cap.CapID(r.U32()), r.U64()
	return r.Err()
}

// DeliverDone acknowledges processing of a delivery, releasing one
// slot of the provider's congestion-control window (§4). Drop lists
// the capabilities the delivery installed that the receiver hands back;
// one that keeps what it was sent lists none.
type DeliverDone struct {
	Seq  uint64
	Drop []cap.CapID
}

func (*DeliverDone) WireType() Type { return TDeliverDone }
func (m *DeliverDone) Encode(w *Writer) {
	w.U64(m.Seq)
	w.U16(uint16(len(m.Drop)))
	for _, cid := range m.Drop {
		w.U32(uint32(cid))
	}
}
func (m *DeliverDone) Decode(r *Reader) error {
	m.Seq, m.Drop = r.U64(), nil
	if n := count(r, cidSize); n > 0 && r.Err() == nil {
		var own *[]cap.CapID
		if r.dec != nil {
			own = &r.dec.cids
		}
		m.Drop = list(own, nil, n)
		for i := range m.Drop {
			m.Drop[i] = cap.CapID(r.U32())
		}
	}
	return r.Err()
}

// Null is the no-op syscall used to measure the bare cost of one
// FractOS operation (Table 3).
type Null struct {
	Token uint64
}

func (*Null) WireType() Type     { return TNull }
func (m *Null) Encode(w *Writer) { w.U64(m.Token) }
func (m *Null) Decode(r *Reader) error {
	m.Token = r.U64()
	return r.Err()
}

// ProcBye announces a graceful Process exit.
type ProcBye struct{}

func (*ProcBye) WireType() Type       { return TProcBye }
func (*ProcBye) Encode(*Writer)       {}
func (*ProcBye) Decode(*Reader) error { return nil }

// ---- Controller → Process ----

// Completion resolves an asynchronous syscall. Cid carries the newly
// created capability for create/derive calls; Aux is call-specific
// (e.g. bytes copied).
type Completion struct {
	Token  uint64
	Status Status
	Cid    cap.CapID
	Aux    uint64
}

func (*Completion) WireType() Type { return TCompletion }
func (m *Completion) Encode(w *Writer) {
	w.U64(m.Token)
	w.U8(uint8(m.Status))
	w.U32(uint32(m.Cid))
	w.U64(m.Aux)
}
func (m *Completion) Decode(r *Reader) error {
	m.Token, m.Status = r.U64(), Status(r.U8())
	m.Cid, m.Aux = cap.CapID(r.U32()), r.U64()
	return r.Err()
}

// Deliver is a request_receive descriptor: an invocation arriving at a
// provider Process. Imms is the merged immediate-argument buffer; Caps
// are the delegated capability arguments, already installed in the
// provider's capability space.
type Deliver struct {
	Seq  uint64
	Tag  uint64
	Imms []byte
	Caps []DeliveredCap
}

func (*Deliver) WireType() Type { return TDeliver }
func (m *Deliver) Encode(w *Writer) {
	w.U64(m.Seq)
	w.U64(m.Tag)
	w.Bytes32(m.Imms)
	encodeDelivered(w, m.Caps)
}
func (m *Deliver) Decode(r *Reader) error {
	m.Seq, m.Tag = r.U64(), r.U64()
	m.Imms = r.Bytes32()
	m.Caps = decodeDelivered(r)
	return r.Err()
}

// MonitorCB delivers a monitor callback to the Process that registered
// it. Kind 0 = delegate (children gone), 1 = receive (object revoked).
type MonitorCB struct {
	Callback uint64
	Kind     uint8
}

// Monitor callback kinds.
const (
	MonitorCBDelegate uint8 = 0
	MonitorCBReceive  uint8 = 1
)

func (*MonitorCB) WireType() Type { return TMonitorCB }
func (m *MonitorCB) Encode(w *Writer) {
	w.U64(m.Callback)
	w.U8(m.Kind)
}
func (m *MonitorCB) Decode(r *Reader) error {
	m.Callback, m.Kind = r.U64(), r.U8()
	return r.Err()
}

// ---- Controller ↔ Controller ----

// CtrlDeriveMem asks the owner to derive a diminished Memory object.
type CtrlDeriveMem struct {
	Token  uint64
	Src    cap.ControllerID
	From   cap.Ref
	Offset uint64
	Size   uint64
	Drop   cap.Rights
}

func (*CtrlDeriveMem) WireType() Type { return TCtrlDeriveMem }
func (m *CtrlDeriveMem) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Src))
	encodeRef(w, m.From)
	w.U64(m.Offset)
	w.U64(m.Size)
	w.U8(uint8(m.Drop))
}
func (m *CtrlDeriveMem) Decode(r *Reader) error {
	m.Token, m.Src = r.U64(), cap.ControllerID(r.U32())
	m.From = decodeRef(r)
	m.Offset, m.Size, m.Drop = r.U64(), r.U64(), cap.Rights(r.U8())
	return r.Err()
}

// CtrlDeriveReq asks the owner to derive a refined Request object.
type CtrlDeriveReq struct {
	Token uint64
	Src   cap.ControllerID
	From  cap.Ref
	Imms  []ImmArg
	Caps  []CapXfer
}

func (*CtrlDeriveReq) WireType() Type { return TCtrlDeriveReq }
func (m *CtrlDeriveReq) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Src))
	encodeRef(w, m.From)
	encodeImms(w, m.Imms)
	encodeCapXfers(w, m.Caps)
}
func (m *CtrlDeriveReq) Decode(r *Reader) error {
	m.Token, m.Src = r.U64(), cap.ControllerID(r.U32())
	m.From = decodeRef(r)
	m.Imms = decodeImms(r, m.Imms)
	m.Caps = decodeCapXfers(r)
	return r.Err()
}

// CtrlRevtree asks the owner to create a revocation-subtree child.
type CtrlRevtree struct {
	Token uint64
	Src   cap.ControllerID
	From  cap.Ref
}

func (*CtrlRevtree) WireType() Type { return TCtrlRevtree }
func (m *CtrlRevtree) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Src))
	encodeRef(w, m.From)
}
func (m *CtrlRevtree) Decode(r *Reader) error {
	m.Token, m.Src = r.U64(), cap.ControllerID(r.U32())
	m.From = decodeRef(r)
	return r.Err()
}

// CtrlRevoke asks the owner to invalidate an object (and subtree).
type CtrlRevoke struct {
	Token uint64
	Src   cap.ControllerID
	From  cap.Ref
}

func (*CtrlRevoke) WireType() Type { return TCtrlRevoke }
func (m *CtrlRevoke) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Src))
	encodeRef(w, m.From)
}
func (m *CtrlRevoke) Decode(r *Reader) error {
	m.Token, m.Src = r.U64(), cap.ControllerID(r.U32())
	m.From = decodeRef(r)
	return r.Err()
}

// CtrlValidate asks the owner whether Ref is live and conveys Need;
// for Memory objects the answer locates the backing buffer for RDMA.
type CtrlValidate struct {
	Token uint64
	Src   cap.ControllerID
	Ref   cap.Ref
	Need  cap.Rights
}

func (*CtrlValidate) WireType() Type { return TCtrlValidate }
func (m *CtrlValidate) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Src))
	encodeRef(w, m.Ref)
	w.U8(uint8(m.Need))
}
func (m *CtrlValidate) Decode(r *Reader) error {
	m.Token, m.Src = r.U64(), cap.ControllerID(r.U32())
	m.Ref = decodeRef(r)
	m.Need = cap.Rights(r.U8())
	return r.Err()
}

// CtrlValInfo answers a CtrlValidate: where the Memory object's bytes
// live (fabric endpoint + offset) and its authoritative extent/rights.
type CtrlValInfo struct {
	Token    uint64
	Status   Status
	Endpoint uint32 // fabric endpoint owning the arena
	Base     uint64 // offset within that arena
	Size     uint64
	Rights   cap.Rights
}

func (*CtrlValInfo) WireType() Type { return TCtrlValInfo }
func (m *CtrlValInfo) Encode(w *Writer) {
	w.U64(m.Token)
	w.U8(uint8(m.Status))
	w.U32(m.Endpoint)
	w.U64(m.Base)
	w.U64(m.Size)
	w.U8(uint8(m.Rights))
}
func (m *CtrlValInfo) Decode(r *Reader) error {
	m.Token, m.Status = r.U64(), Status(r.U8())
	m.Endpoint, m.Base, m.Size = r.U32(), r.U64(), r.U64()
	m.Rights = cap.Rights(r.U8())
	return r.Err()
}

// CtrlInvoke carries a request invocation to the owner of the Request
// object, with invoke-time refinements and delegated capabilities.
// Replied says a reply Request its sender armed answers it, so on a
// reliable fabric the owner acks it only to refuse it; it travels in
// Src's varint (Writer.flagged).
type CtrlInvoke struct {
	Token   uint64
	Src     cap.ControllerID
	Replied bool
	Ref     cap.Ref
	Imms    []ImmArg
	Caps    []CapXfer
}

func (*CtrlInvoke) WireType() Type { return TCtrlInvoke }
func (m *CtrlInvoke) Encode(w *Writer) {
	w.U64(m.Token)
	w.flagged(uint64(m.Src), m.Replied)
	encodeRef(w, m.Ref)
	encodeImms(w, m.Imms)
	encodeCapXfers(w, m.Caps)
}
func (m *CtrlInvoke) Decode(r *Reader) error {
	m.Token = r.U64()
	src, replied := r.flagged(math.MaxUint32)
	m.Src, m.Replied = cap.ControllerID(src), replied
	m.Ref = decodeRef(r)
	m.Imms = decodeImms(r, m.Imms)
	m.Caps = decodeCapXfers(r)
	return r.Err()
}

// CtrlAck answers derive/revtree/revoke/invoke requests. Obj/Epoch
// name a newly created object where applicable; Size/Rights echo its
// metadata so the requesting Controller can install a cap entry.
type CtrlAck struct {
	Token  uint64
	Status Status
	Obj    cap.ObjectID
	Epoch  cap.Epoch
	Size   uint64
	Rights cap.Rights
}

func (*CtrlAck) WireType() Type { return TCtrlAck }
func (m *CtrlAck) Encode(w *Writer) {
	w.U64(m.Token)
	w.U8(uint8(m.Status))
	w.U64(uint64(m.Obj))
	w.U32(uint32(m.Epoch))
	w.U64(m.Size)
	w.U8(uint8(m.Rights))
}
func (m *CtrlAck) Decode(r *Reader) error {
	m.Token, m.Status = r.U64(), Status(r.U8())
	m.Obj, m.Epoch = cap.ObjectID(r.U64()), cap.Epoch(r.U32())
	m.Size, m.Rights = r.U64(), cap.Rights(r.U8())
	return r.Err()
}

// CtrlCleanup is the asynchronous revocation-cleanup broadcast: every
// Controller purges capability-space entries referencing the revoked
// objects and acknowledges (§3.5; off the critical path — the owner
// keeps only small revoked stubs until every peer has confirmed no
// capabilities reference them).
type CtrlCleanup struct {
	Token uint64
	Refs  []cap.Ref
}

func (*CtrlCleanup) WireType() Type { return TCtrlCleanup }
func (m *CtrlCleanup) Encode(w *Writer) {
	w.U64(m.Token)
	w.U16(uint16(len(m.Refs)))
	for _, ref := range m.Refs {
		encodeRef(w, ref)
	}
}
func (m *CtrlCleanup) Decode(r *Reader) error {
	m.Token = r.U64()
	m.Refs = decodeRefs(r)
	return r.Err()
}

// CtrlWatch registers a monitor_receive watcher at the owner.
type CtrlWatch struct {
	Token       uint64
	Src         cap.ControllerID
	Ref         cap.Ref
	WatcherProc cap.ProcID
	WatcherCtrl cap.ControllerID
	Callback    uint64
}

func (*CtrlWatch) WireType() Type { return TCtrlWatch }
func (m *CtrlWatch) Encode(w *Writer) {
	w.U64(m.Token)
	w.U32(uint32(m.Src))
	encodeRef(w, m.Ref)
	w.U64(uint64(m.WatcherProc))
	w.U32(uint32(m.WatcherCtrl))
	w.U64(m.Callback)
}
func (m *CtrlWatch) Decode(r *Reader) error {
	m.Token, m.Src = r.U64(), cap.ControllerID(r.U32())
	m.Ref = decodeRef(r)
	m.WatcherProc = cap.ProcID(r.U64())
	m.WatcherCtrl = cap.ControllerID(r.U32())
	m.Callback = r.U64()
	return r.Err()
}

// CtrlNotify forwards a monitor callback to the Controller managing
// the watching Process.
type CtrlNotify struct {
	Proc     cap.ProcID
	Callback uint64
	Kind     uint8
}

func (*CtrlNotify) WireType() Type { return TCtrlNotify }
func (m *CtrlNotify) Encode(w *Writer) {
	w.U64(uint64(m.Proc))
	w.U64(m.Callback)
	w.U8(m.Kind)
}
func (m *CtrlNotify) Decode(r *Reader) error {
	m.Proc = cap.ProcID(r.U64())
	m.Callback, m.Kind = r.U64(), r.U8()
	return r.Err()
}

// CtrlEpoch announces a Controller's current epoch (rebroadcast by the
// node-monitoring service after reboots).
type CtrlEpoch struct {
	Ctrl  cap.ControllerID
	Epoch cap.Epoch
}

func (*CtrlEpoch) WireType() Type { return TCtrlEpoch }
func (m *CtrlEpoch) Encode(w *Writer) {
	w.U32(uint32(m.Ctrl))
	w.U32(uint32(m.Epoch))
}
func (m *CtrlEpoch) Decode(r *Reader) error {
	m.Ctrl, m.Epoch = cap.ControllerID(r.U32()), cap.Epoch(r.U32())
	return r.Err()
}

// ---- node monitoring (4xx) ----

// WatchPing is a heartbeat probe from the node-monitoring service to a
// Controller. Seq identifies the probe round so late pongs are not
// mistaken for current ones.
type WatchPing struct {
	Seq uint64
}

func (*WatchPing) WireType() Type { return TWatchPing }
func (m *WatchPing) Encode(w *Writer) {
	w.U64(m.Seq)
}
func (m *WatchPing) Decode(r *Reader) error {
	m.Seq = r.U64()
	return r.Err()
}

// WatchPong answers a WatchPing with the Controller's identity and
// current epoch, so the monitor can piggyback epoch discovery on
// liveness probing.
type WatchPong struct {
	Seq   uint64
	Ctrl  cap.ControllerID
	Epoch cap.Epoch
}

func (*WatchPong) WireType() Type { return TWatchPong }
func (m *WatchPong) Encode(w *Writer) {
	w.U64(m.Seq)
	w.U32(uint32(m.Ctrl))
	w.U32(uint32(m.Epoch))
}
func (m *WatchPong) Decode(r *Reader) error {
	m.Seq = r.U64()
	m.Ctrl, m.Epoch = cap.ControllerID(r.U32()), cap.Epoch(r.U32())
	return r.Err()
}

// ---- generic ----

// Raw is a free-form message for non-FractOS protocols sharing the
// fabric (the baseline systems). Kind is protocol-specific; IsData
// classifies the message for traffic accounting.
type Raw struct {
	Kind   uint32
	Token  uint64
	IsData bool
	Data   []byte
}

func (*Raw) WireType() Type { return TRaw }
func (m *Raw) Encode(w *Writer) {
	w.U32(m.Kind)
	w.U64(m.Token)
	w.Bool(m.IsData)
	w.Bytes32(m.Data)
}
func (m *Raw) Decode(r *Reader) error {
	m.Kind, m.Token = r.U32(), r.U64()
	m.IsData = r.Bool()
	m.Data = r.Bytes32()
	return r.Err()
}
