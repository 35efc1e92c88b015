package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"fractos/internal/cap"
)

func TestWriterReaderPrimitives(t *testing.T) {
	var w Writer
	w.U8(0xab)
	w.U16(0x1234)
	w.U32(0xdeadbeef)
	w.U64(0x0102030405060708)
	w.Bool(true)
	w.Bytes32([]byte("hello"))

	var r Reader
	r.Reset(w.Bytes())
	if r.U8() != 0xab || r.U16() != 0x1234 || r.U32() != 0xdeadbeef {
		t.Fatal("primitive mismatch")
	}
	if r.U64() != 0x0102030405060708 || !r.Bool() {
		t.Fatal("primitive mismatch")
	}
	if string(r.Bytes32()) != "hello" {
		t.Fatal("bytes mismatch")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestReaderShortBufferSticky(t *testing.T) {
	var r Reader
	r.Reset([]byte{0x80}) // a multi-byte varint, cut after its first byte
	_ = r.U32()
	if r.Err() != ErrShort {
		t.Fatalf("err = %v, want ErrShort", r.Err())
	}
	// All subsequent reads return zero without panicking.
	if r.U64() != 0 || r.U8() != 0 || r.Bytes32() != nil {
		t.Fatal("reads after error must return zero values")
	}
}

func TestBytes32HugeLengthRejected(t *testing.T) {
	var w Writer
	w.U32(1 << 30) // absurd length, no payload
	var r Reader
	r.Reset(w.Bytes())
	if r.Bytes32() != nil || r.Err() == nil {
		t.Fatal("oversized length must fail, not allocate")
	}
}

func TestUnmarshalUnknownType(t *testing.T) {
	var w Writer
	w.U16(0xffff)
	if _, err := Unmarshal(w.Bytes()); err == nil {
		t.Fatal("expected unknown-type error")
	}
}

func TestUnmarshalEmpty(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("expected error for empty buffer")
	}
}

// sampleMessages returns one populated instance of every message type.
func sampleMessages() []Message {
	ref := cap.Ref{Ctrl: 7, Obj: 99, Epoch: 3}
	return []Message{
		&MemCreate{Token: 1, Base: 4096, Size: 1 << 20, Perms: cap.MemRights},
		&MemDiminish{Token: 2, Cid: 5, Offset: 128, Size: 256, Drop: cap.Write},
		&MemCopy{Token: 3, SrcCid: 4, DstCid: 9},
		&MemCopy{Token: 26, SrcCid: 4, DstCid: 9, SrcOff: 4100, DstOff: 7, Len: 1 << 20},
		&MemCopy{Token: 27, SrcCid: 4, DstCid: 9, DstOff: 1}, // ranged by one field only
		&ReqCreate{Token: 4, Parent: 2, Tag: 77,
			Imms: []ImmArg{{Offset: 0, Data: []byte{1, 2, 3}}, {Offset: 16, Data: []byte("x")}},
			Caps: []CapSlot{{Slot: 0, Cid: 3}, {Slot: 2, Cid: 8}}},
		&ReqInvoke{Token: 5, Cid: 6, Imms: []ImmArg{{Offset: 8, Data: []byte("args")}},
			Caps: []CapSlot{{Slot: 1, Cid: 2}}},
		&ReqInvoke{Token: 28, Cid: 6, Caps: []CapSlot{{Slot: 1, Cid: 2}}, Reply: 1<<24 | 7},
		&CapRevtree{Token: 6, Cid: 11},
		&CapRevoke{Token: 7, Cid: 12},
		&CapDrop{Token: 8, Cid: 13},
		&MonitorDelegate{Token: 9, Cid: 14, Callback: 0xcafe},
		&MonitorReceive{Token: 10, Cid: 15, Callback: 0xbeef},
		&DeliverDone{Seq: 42},
		&DeliverDone{Seq: 43, Drop: []cap.CapID{17, 1<<24 | 5}},
		&ProcBye{},
		&Null{Token: 99},
		&Completion{Token: 11, Status: StatusPerm, Cid: 16, Aux: 512},
		&Deliver{Seq: 12, Tag: 88, Imms: []byte("immediate"),
			Caps: []DeliveredCap{{Slot: 0, Cid: 17, Kind: cap.KindMemory, Rights: cap.Read, Size: 64}}},
		&MonitorCB{Callback: 0xdead, Kind: MonitorCBReceive},
		&CtrlDeriveMem{Token: 13, Src: 2, From: ref, Offset: 8, Size: 16, Drop: cap.Write},
		&CtrlDeriveReq{Token: 14, Src: 2, From: ref,
			Imms: []ImmArg{{Offset: 4, Data: []byte("d")}},
			Caps: []CapXfer{{Slot: 3, Ref: ref, Kind: cap.KindRequest, Rights: cap.ReqRights, Size: 0, Monitored: true}}},
		&CtrlRevtree{Token: 15, Src: 3, From: ref},
		&CtrlRevoke{Token: 16, Src: 3, From: ref},
		&CtrlValidate{Token: 17, Src: 4, Ref: ref, Need: cap.Read},
		&CtrlValInfo{Token: 18, Status: StatusOK, Endpoint: 5, Base: 4096, Size: 8192, Rights: cap.MemRights},
		&CtrlInvoke{Token: 19, Src: 5, Ref: ref,
			Imms: []ImmArg{{Offset: 0, Data: bytes.Repeat([]byte("p"), 300)}},
			Caps: []CapXfer{{Slot: 0, Ref: ref, Kind: cap.KindMemory, Rights: cap.Read | cap.Grant, Size: 4096}}},
		&CtrlAck{Token: 20, Status: StatusRevoked, Obj: 1234, Epoch: 9, Size: 77, Rights: cap.All},
		&CtrlInvoke{Token: 25, Src: 5, Replied: true, Ref: ref,
			Caps: []CapXfer{{Slot: 0, Ref: ref, Kind: cap.KindRequest, Rights: cap.ReqRights, Once: true}}},
		&CtrlInvoke{Token: 26, Src: 5, Ref: ref,
			Caps: []CapXfer{{Slot: 0, Ref: ref, Kind: cap.KindRequest, Rights: cap.ReqRights, Once: true, Relayed: true}}},
		&CtrlCleanup{Token: 31, Refs: []cap.Ref{ref, {Ctrl: 1, Obj: 2, Epoch: 3}}},
		&CtrlWatch{Token: 23, Src: 7, Ref: ref, WatcherProc: 66, WatcherCtrl: 8, Callback: 0xf00d},
		&CtrlNotify{Proc: 67, Callback: 0xfeed, Kind: MonitorCBDelegate},
		&CtrlEpoch{Ctrl: 9, Epoch: 4},
		&WatchPing{Seq: 71},
		&WatchPong{Seq: 71, Ctrl: 2, Epoch: 5},
		&Raw{Kind: 3, Token: 24, IsData: true, Data: []byte("baseline payload")},
	}
}

func TestRoundTripAllMessageTypes(t *testing.T) {
	for _, m := range sampleMessages() {
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%T: unmarshal: %v", m, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%T round-trip mismatch:\n in: %+v\nout: %+v", m, m, got)
		}
		if SizeOf(m) != len(b) {
			t.Errorf("%T: SizeOf=%d, Marshal len=%d", m, SizeOf(m), len(b))
		}
	}
}

// TestEveryRegisteredTypeCovered walks the whole type range through
// newMessage: every message type has a round-trip sample, and the
// message newMessage builds for it says it is of that type.
func TestEveryRegisteredTypeCovered(t *testing.T) {
	covered := map[Type]bool{}
	for _, m := range sampleMessages() {
		covered[m.WireType()] = true
	}
	for i := 0; i <= 0xffff; i++ {
		typ := Type(i)
		m := newMessage(typ)
		if m == nil {
			continue
		}
		if m.WireType() != typ {
			t.Errorf("newMessage(%d) builds a %T, of type %d", typ, m, m.WireType())
		}
		if !covered[typ] {
			t.Errorf("message type %d has no round-trip sample", typ)
		}
	}
}

// TestClassification holds ClassOf to its rule at the threshold: an
// invocation or delivery is Data once its immediates, summed over the
// list, carry more than dataThreshold bytes; a Raw is what it says.
func TestClassification(t *testing.T) {
	for _, n := range []int{dataThreshold, dataThreshold + 1} {
		want := Control
		if n > dataThreshold {
			want = Data
		}
		imms := []ImmArg{{Data: make([]byte, n-1)}, {Offset: 512, Data: make([]byte, 1)}}
		for _, m := range []Message{&Deliver{Imms: make([]byte, n)}, &ReqCreate{Imms: imms},
			&ReqInvoke{Imms: imms}, &CtrlDeriveReq{Imms: imms}, &CtrlInvoke{Imms: imms}} {
			if got := ClassOf(m); got != want {
				t.Errorf("%T carrying %d immediate bytes is class %d, want %d", m, n, got, want)
			}
		}
	}
	if ClassOf(&Raw{IsData: true}) != Data || ClassOf(&Raw{Data: make([]byte, 4096)}) != Control {
		t.Error("a Raw is the class it says it is")
	}
}

// Property: random truncation of a valid encoding never panics and
// either errors or (only for truncation at the exact boundary)
// round-trips.
func TestTruncationNeverPanics(t *testing.T) {
	msgs := sampleMessages()
	f := func(pick uint8, cut uint16) bool {
		m := msgs[int(pick)%len(msgs)]
		b := Marshal(m)
		n := int(cut) % (len(b) + 1)
		_, err := Unmarshal(b[:n])
		return n == len(b) || err != nil || alwaysDecodable(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// alwaysDecodable reports whether a message body can decode from a
// prefix (zero-field messages decode from anything).
func alwaysDecodable(m Message) bool {
	switch m.(type) {
	case *ProcBye:
		return true
	}
	return false
}

// TestGoldenFrames: every sample message encodes to its golden frame
// and keeps its traffic class.
func TestGoldenFrames(t *testing.T) {
	msgs := sampleMessages()
	if len(msgs) != len(goldenFrames) {
		t.Fatalf("%d sample messages, %d golden frames", len(msgs), len(goldenFrames))
	}
	for i, m := range msgs {
		g := goldenFrames[i]
		if got := fmt.Sprintf("%x", Marshal(m)); got != g.hex {
			t.Errorf("%s encodes to %s, want %s", g.name, got, g.hex)
		}
		if got := ClassOf(m); got != g.class {
			t.Errorf("%s is class %d, want %d", g.name, got, g.class)
		}
	}
}

// goldenFrames is the encoding and traffic class of every
// sampleMessages() entry, in order: every message type's byte layout,
// pinned. A row changes only when the byte layout does, never with a
// rework of the codec that keeps it.
var goldenFrames = []struct {
	name  string
	hex   string
	class Class
}{
	{"MemCreate", "640180208080400b", Control},
	{"MemDiminish", "6502058001800202", Control},
	{"MemCopy", "66030409000000", Control},
	{"MemCopy, ranged", "661a0409842007808040", Control},
	{"MemCopy, ranged by DstOff", "661b0409000100", Control},
	{"ReqCreate", "6704024d0200030102031001780200030208", Control},
	{"ReqInvoke", "68050601080461726773020102", Control},
	{"ReqInvoke, declaring its reply Request", "681c060003010287808008", Control},
	{"CapRevtree", "69060b", Control},
	{"CapRevoke", "6a070c", Control},
	{"CapDrop", "6b080d", Control},
	{"MonitorDelegate", "6c090efe9503", Control},
	{"MonitorReceive", "6d0a0feffd02", Control},
	{"DeliverDone", "6e2a00", Control},
	{"DeliverDone, handing back 2", "6e2b021185808008", Control},
	{"ProcBye", "6f", Control},
	{"Null", "7063", Control},
	{"Completion", "c8010b04108004", Control},
	{"Deliver", "c9010c5809696d6d656469617465010011010140", Control},
	{"MonitorCB", "ca01adbd0301", Control},
	{"CtrlDeriveMem", "ac020d02076303081002", Control},
	{"CtrlDeriveReq", "ad020e02076303010401640103076303020c000100", Control},
	{"CtrlRevtree", "ae020f03076303", Control},
	{"CtrlRevoke", "af021003076303", Control},
	{"CtrlValidate", "b002110407630301", Control},
	{"CtrlValInfo", "b102120005802080400b", Control},
	{"CtrlInvoke, 300-byte immediate", "b202130a0763030100ac02" + strings.Repeat("70", 300) + "0100076303010980200000", Data},
	{"CtrlAck", "b3021401d209094d0f", Control},
	{"CtrlInvoke, answered by the Once reply Request it passes", "b202190b076303000100076303028c000000", Control},
	{"CtrlInvoke, passing on a relayed Once reply Request", "b2021a0a07630300010007630302cc000000", Control},
	{"CtrlCleanup", "b4021f02076303010203", Control},
	{"CtrlWatch", "b702170707630342088de003", Control},
	{"CtrlNotify", "b80243edfd0300", Control},
	{"CtrlEpoch", "b9020904", Control},
	{"WatchPing", "900347", Control},
	{"WatchPong", "9103470205", Control},
	{"Raw", "840703180110626173656c696e65207061796c6f6164", Data},
}

// Property: random ReqCreate messages round-trip exactly.
func TestReqCreateRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := &ReqCreate{
			Token:  rng.Uint64(),
			Parent: cap.CapID(rng.Uint32()),
			Tag:    rng.Uint64(),
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			d := make([]byte, rng.Intn(100))
			rng.Read(d)
			m.Imms = append(m.Imms, ImmArg{Offset: rng.Uint32() % 1024, Data: d})
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			m.Caps = append(m.Caps, CapSlot{Slot: uint16(rng.Intn(16)), Cid: cap.CapID(rng.Uint32())})
		}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusErr(t *testing.T) {
	if StatusOK.Err() != nil {
		t.Error("StatusOK.Err() must be nil")
	}
	err := StatusRevoked.Err()
	if err == nil || !IsStatus(err, StatusRevoked) {
		t.Errorf("err = %v", err)
	}
	if IsStatus(err, StatusPerm) {
		t.Error("IsStatus matched wrong code")
	}
	for s := StatusOK; s <= StatusQuota; s++ {
		if s.String() == "status(?)" {
			t.Errorf("status %d has no name", s)
		}
	}
}

// TestPurposes pins every message type's purpose class, the rows
// fractos-trace counts a request's messages by.
func TestPurposes(t *testing.T) {
	want := map[string][]Type{
		"syscall": {TMemCreate, TMemDiminish, TMemCopy, TReqCreate, TReqInvoke, TCapRevtree, TCapRevoke,
			TCapDrop, TMonitorDelegate, TMonitorReceive, TProcBye, TNull},
		"completion":    {TCompletion},
		"delivery":      {TDeliver},
		"delivery-done": {TDeliverDone},
		"peer request":  {TCtrlDeriveMem, TCtrlDeriveReq, TCtrlRevtree, TCtrlRevoke, TCtrlInvoke, TRaw},
		"peer ack":      {TCtrlAck},
		"validation":    {TCtrlValidate, TCtrlValInfo},
		"cleanup":       {TCtrlCleanup},
		"monitor":       {TMonitorCB, TCtrlWatch, TCtrlNotify, TCtrlEpoch, TWatchPing, TWatchPong},
	}
	classed := map[Type]bool{}
	for purpose, types := range want {
		if !slices.Contains(Purposes, purpose) {
			t.Errorf("%q is no purpose class", purpose)
		}
		for _, typ := range types {
			classed[typ] = true
			if got := typ.Purpose(); got != purpose {
				t.Errorf("type %d has purpose %q, want %q", typ, got, purpose)
			}
		}
	}
	for _, m := range sampleMessages() {
		if !classed[m.WireType()] {
			t.Errorf("type %d (%T) has no pinned purpose", m.WireType(), m)
		}
	}
}
