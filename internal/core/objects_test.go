package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"fractos/internal/cap"
	"fractos/internal/wire"
)

func TestImmBufWriteOnce(t *testing.T) {
	var b immBuf
	if st := b.write(0, []byte("abcd")); st != wire.StatusOK {
		t.Fatalf("first write: %v", st)
	}
	if st := b.write(2, []byte("xy")); st != wire.StatusImmutable {
		t.Fatalf("overlapping write: %v, want immutable", st)
	}
	if st := b.write(4, []byte("efgh")); st != wire.StatusOK {
		t.Fatalf("adjacent write: %v", st)
	}
	if !bytes.Equal(b.bytes(), []byte("abcdefgh")) {
		t.Fatalf("bytes = %q", b.bytes())
	}
}

func TestImmBufSparseWrites(t *testing.T) {
	var b immBuf
	if st := b.write(8, []byte{0xff}); st != wire.StatusOK {
		t.Fatal(st)
	}
	// The gap is zero-filled and still writable.
	if b.bytes()[0] != 0 || len(b.bytes()) != 9 {
		t.Fatalf("bytes = %v", b.bytes())
	}
	if st := b.write(0, []byte{1}); st != wire.StatusOK {
		t.Fatalf("gap write: %v", st)
	}
}

func TestImmBufBounds(t *testing.T) {
	var b immBuf
	if st := b.write(-1, []byte{1}); st != wire.StatusBounds {
		t.Errorf("negative offset: %v", st)
	}
	if st := b.write(maxImmBuf, []byte{1}); st != wire.StatusBounds {
		t.Errorf("past cap: %v", st)
	}
	if st := b.write(0, nil); st != wire.StatusOK {
		t.Errorf("empty write: %v", st)
	}
}

// Property: whatever the sequence of writes, a byte that was ever
// written never changes value afterwards.
func TestImmBufNeverRewritesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b immBuf
		shadow := map[int]byte{}
		for i := 0; i < 50; i++ {
			off := rng.Intn(256)
			data := make([]byte, rng.Intn(16))
			rng.Read(data)
			st := b.write(off, data)
			if st == wire.StatusOK {
				for j, v := range data {
					shadow[off+j] = v
				}
			}
			for pos, want := range shadow {
				if b.bytes()[pos] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReqObjectCloneIsolation(t *testing.T) {
	orig := &reqObject{provider: 7, tag: 42, caps: []wire.CapXfer{
		{Slot: 1, Ref: cap.Ref{Ctrl: 1, Obj: 2}, Kind: cap.KindMemory},
	}}
	orig.applyImms([]wire.ImmArg{{Offset: 0, Data: []byte("base")}})

	cl := orig.clone()
	if st := cl.applyImms([]wire.ImmArg{{Offset: 8, Data: []byte("more")}}); st != wire.StatusOK {
		t.Fatal(st)
	}
	if st := cl.applyCaps([]wire.CapXfer{{Slot: 2, Kind: cap.KindRequest}}); st != wire.StatusOK {
		t.Fatal(st)
	}
	// The original is untouched.
	if len(orig.imms.bytes()) != 4 || len(orig.caps) != 1 {
		t.Fatal("clone mutated the original")
	}
	if cl.provider != 7 || cl.tag != 42 {
		t.Fatal("clone lost identity")
	}
}

func TestReqObjectSlotImmutable(t *testing.T) {
	r := &reqObject{}
	if st := r.applyCaps([]wire.CapXfer{{Slot: 3, Kind: cap.KindMemory}}); st != wire.StatusOK {
		t.Fatal(st)
	}
	if st := r.applyCaps([]wire.CapXfer{{Slot: 3, Kind: cap.KindRequest}}); st != wire.StatusImmutable {
		t.Fatalf("slot overwrite: %v", st)
	}
}

func TestCostModelCoversAllMessages(t *testing.T) {
	c := &Controller{perf: DefaultPerf()} // cost() only reads perf and cfg.Loc
	msgs := []wire.Message{
		&wire.Null{}, &wire.MemCreate{}, &wire.MemDiminish{}, &wire.MemCopy{},
		&wire.ReqCreate{Caps: make([]wire.CapSlot, 3)},
		&wire.ReqInvoke{}, &wire.CapRevtree{}, &wire.CapRevoke{}, &wire.CapDrop{},
		&wire.MonitorDelegate{}, &wire.MonitorReceive{}, &wire.DeliverDone{},
		&wire.ProcBye{}, &wire.CtrlInvoke{Caps: make([]wire.CapXfer, 2)},
		&wire.CtrlDeriveMem{}, &wire.CtrlDeriveReq{}, &wire.CtrlRevtree{},
		&wire.CtrlRevoke{}, &wire.CtrlValidate{}, &wire.CtrlAck{},
		&wire.CtrlValInfo{}, &wire.CtrlCleanup{}, &wire.CtrlWatch{},
		&wire.CtrlNotify{}, &wire.CtrlEpoch{},
	}
	for _, m := range msgs {
		if c.cost(m) <= 0 {
			t.Errorf("%T has zero processing cost", m)
		}
	}
	// Capability arguments add per-cap cost.
	with := c.cost(&wire.ReqInvoke{Caps: make([]wire.CapSlot, 4)})
	without := c.cost(&wire.ReqInvoke{})
	if with <= without {
		t.Error("per-capability cost not applied")
	}
}

func TestSNICCostsExceedCPU(t *testing.T) {
	cpu := DefaultPerf()
	for _, oc := range []OpCost{cpu.Null, cpu.ReqHandle, cpu.CtrlSerial, cpu.PerCap, cpu.MemOp, cpu.PerChunk, cpu.CapOp} {
		if oc.SNIC <= oc.CPU {
			t.Errorf("sNIC cost %v not above CPU cost %v", oc.SNIC, oc.CPU)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	if c := (Config{}).withDefaults(); c.Window != DefaultWindow {
		t.Errorf("defaults not applied: %+v", c)
	}
	// Explicit values survive.
	if c := (Config{Window: 3}).withDefaults(); c.Window != 3 {
		t.Errorf("explicit values overridden: %+v", c)
	}
}

func TestPlacementString(t *testing.T) {
	if CtrlOnCPU.String() != "cpu" || CtrlOnSNIC.String() != "snic" || CtrlShared.String() != "shared" {
		t.Error("placement strings wrong")
	}
}
