package nvme

import (
	"bytes"
	"math"
	"testing"
	"time"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

func us(f float64) sim.Time { return sim.Time(f * float64(time.Microsecond)) }

func runSim(t *testing.T, fn func(tk *sim.Task, k *sim.Kernel)) {
	t.Helper()
	k := sim.New(1)
	done := false
	k.Spawn("test-main", func(tk *sim.Task) { fn(tk, k); done = true })
	k.Run()
	k.Shutdown()
	if !done {
		t.Fatal("test did not complete (deadlock?)")
	}
}

// access books an access of the device, waits out its time and delivers
// it, as a local task does.
func access(t *sim.Task, d *Device, off int64, buf []byte, write bool) error {
	lat, err := d.Book(off, len(buf), write)
	if err != nil {
		return err
	}
	t.Sleep(lat)
	d.Deliver(off, buf, write)
	return nil
}

func TestDeviceDataIntegrity(t *testing.T) {
	runSim(t, func(tk *sim.Task, k *sim.Kernel) {
		d := NewDevice(k, DefaultCapacity)
		in := bytes.Repeat([]byte("storage!"), 1024) // 8 KiB, page-unaligned offset
		if err := access(tk, d, 12345, in, true); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, len(in))
		if err := access(tk, d, 12345, out, false); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in, out) {
			t.Fatal("device corrupted data")
		}
		// Unwritten space reads as zeros.
		z := make([]byte, 100)
		if err := access(tk, d, 1<<30, z, false); err != nil {
			t.Fatal(err)
		}
		for _, b := range z {
			if b != 0 {
				t.Fatal("unwritten space not zero")
			}
		}
	})
}

func TestDeviceBounds(t *testing.T) {
	runSim(t, func(tk *sim.Task, k *sim.Kernel) {
		d := NewDevice(k, DefaultCapacity)
		buf := make([]byte, 16)
		if err := access(tk, d, d.Capacity()-8, buf, false); err != ErrOutOfRange {
			t.Errorf("read past end: %v", err)
		}
		if err := access(tk, d, -1, buf, true); err != ErrOutOfRange {
			t.Errorf("negative write: %v", err)
		}
		if err := access(tk, d, math.MaxInt64-10, buf, true); err != ErrOutOfRange {
			t.Errorf("write at an offset whose sum with the length wraps: %v", err)
		}
		if err := access(tk, d, math.MaxInt64-10, buf, false); err != ErrOutOfRange {
			t.Errorf("read at an offset whose sum with the length wraps: %v", err)
		}
	})
}

func TestRandomReadLatencyAbout70us(t *testing.T) {
	runSim(t, func(tk *sim.Task, k *sim.Kernel) {
		d := NewDevice(k, DefaultCapacity)
		buf := make([]byte, 4096)
		start := tk.Now()
		if err := access(tk, d, 512*1024*1024, buf, false); err != nil {
			t.Fatal(err)
		}
		lat := tk.Now() - start
		if lat < us(60) || lat > us(80) {
			t.Errorf("random 4KiB read = %v, want ~70µs (§6.4)", lat)
		}
	})
}

func TestSequentialReadsHitReadAhead(t *testing.T) {
	runSim(t, func(tk *sim.Task, k *sim.Kernel) {
		d := NewDevice(k, DefaultCapacity)
		buf := make([]byte, 4096)
		access(tk, d, 0, buf, false) // miss, arms read-ahead
		start := tk.Now()
		access(tk, d, 4096, buf, false) // sequential: hit
		seq := tk.Now() - start
		start = tk.Now()
		access(tk, d, 1<<30, buf, false) // random: miss
		rnd := tk.Now() - start
		if seq >= rnd {
			t.Errorf("sequential read (%v) not faster than random (%v)", seq, rnd)
		}
		if d.RAHits != 1 || d.RAMiss != 2 {
			t.Errorf("hits=%d miss=%d", d.RAHits, d.RAMiss)
		}
	})
}

func TestWriteCacheAbsorbsThenThrottles(t *testing.T) {
	runSim(t, func(tk *sim.Task, k *sim.Kernel) {
		d := NewDevice(k, DefaultCapacity)
		d.dirtyLimit = 1 << 20 // 1 MiB cache
		buf := make([]byte, 256*1024)
		start := tk.Now()
		access(tk, d, 0, buf, true) // absorbed
		fast := tk.Now() - start
		// Blow through the cache.
		for i := 0; i < 8; i++ {
			access(tk, d, int64(i)*int64(len(buf)), buf, true)
		}
		start = tk.Now()
		access(tk, d, 0, buf, true) // throttled
		slow := tk.Now() - start
		if slow <= fast {
			t.Errorf("throttled write (%v) not slower than absorbed write (%v)", slow, fast)
		}
	})
}

// --- adaptor integration ---

// setupAdaptor builds a cluster with an NVMe adaptor on node 2 and a
// client on node 0, granting the client the VolCreate Request.
func setupAdaptor(tk *sim.Task, t *testing.T, cl *core.Cluster) (*Adaptor, *proc.Process, proc.Cap) {
	t.Helper()
	dev := NewDevice(cl.K, DefaultCapacity)
	ad := NewAdaptor(cl, 2, "nvme0", dev)
	if err := ad.Start(tk); err != nil {
		t.Fatal(err)
	}
	client := proc.Attach(cl, 0, "client", 4<<20)
	vc, err := proc.GrantCap(ad.P, ad.VolCreate, client)
	if err != nil {
		t.Fatal(err)
	}
	return ad, client, vc
}

// createVolume drives TagVolCreate from the client.
func createVolume(tk *sim.Task, t *testing.T, client *proc.Process, vc proc.Cap, size uint64) (rd, wr proc.Cap) {
	t.Helper()
	d, err := client.Call(tk, vc, []wire.ImmArg{proc.U64Arg(ImmVol, size)}, nil, SlotCont)
	if err != nil {
		t.Fatalf("volcreate: %v", err)
	}
	if st := d.U64(0); st != StatusOK {
		t.Fatalf("volcreate status = %d", st)
	}
	rd, ok1 := d.Cap(SlotVolRead)
	wr, ok2 := d.Cap(SlotVolWrite)
	if !ok1 || !ok2 {
		t.Fatal("volcreate reply missing volume requests")
	}
	return rd, wr
}

func TestAdaptorWriteThenRead(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		defer func() { done = true }()
		_, client, vc := setupAdaptor(tk, t, cl)
		rd, wr := createVolume(tk, t, client, vc, 1<<20)

		payload := bytes.Repeat([]byte("fractos-blocks!!"), 512) // 8 KiB
		copy(client.Arena(), payload)
		src, _ := client.MemoryCreate(tk, 0, uint64(len(payload)), cap.MemRights)

		// Write: invoke the volume-write Request with offset/len and a
		// reply continuation.
		dW, err := client.Call(tk, wr,
			[]wire.ImmArg{proc.U64Arg(ImmOff, 4096), proc.U64Arg(ImmLen, uint64(len(payload)))},
			[]proc.Arg{{Slot: SlotData, Cap: src}}, SlotCont)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		if st := dW.U64(0); st != StatusOK {
			t.Fatalf("write status = %d", st)
		}

		// Read back into a different client buffer.
		dstOff := 64 * 1024
		dst, _ := client.MemoryCreate(tk, uint64(dstOff), uint64(len(payload)), cap.MemRights)
		dR, err := client.Call(tk, rd,
			[]wire.ImmArg{proc.U64Arg(ImmOff, 4096), proc.U64Arg(ImmLen, uint64(len(payload)))},
			[]proc.Arg{{Slot: SlotData, Cap: dst}}, SlotCont)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if st := dR.U64(0); st != StatusOK {
			t.Fatalf("read status = %d", st)
		}
		if !bytes.Equal(client.Arena()[dstOff:dstOff+len(payload)], payload) {
			t.Fatal("read-back mismatch")
		}
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("deadlock")
	}
}

func TestAdaptorRejectsBadRequests(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		defer func() { done = true }()
		_, client, vc := setupAdaptor(tk, t, cl)
		rd, wr := createVolume(tk, t, client, vc, 64*1024)
		dst, _ := client.MemoryCreate(tk, 0, 4096, cap.MemRights)

		// An offset whose sum with the length wraps: a read and a write.
		// (Summed, MaxInt64−10 + 4096 is negative and passed both the
		// volume's check and the device's — the write landed in pages far
		// outside both.)
		for _, req := range []proc.Cap{rd, wr} {
			d, err := client.Call(tk, req,
				[]wire.ImmArg{proc.U64Arg(ImmOff, math.MaxInt64-10), proc.U64Arg(ImmLen, 4096)},
				[]proc.Arg{{Slot: SlotData, Cap: dst}}, SlotCont)
			if err != nil {
				t.Error(err)
				return
			}
			if st := d.U64(0); st != StatusBounds {
				t.Errorf("offset+length wrapping: status = %d, want bounds", st)
			}
		}

		// A second volume whose size, added to the space already given
		// out, wraps.
		if d, err := client.Call(tk, vc, []wire.ImmArg{proc.U64Arg(ImmVol, math.MaxInt64)}, nil, SlotCont); err != nil || d.U64(0) != StatusBounds {
			t.Errorf("volume of MaxInt64 bytes: err %v, status %d, want bounds", err, d.U64(0))
		}

		// Out-of-volume read.
		d, err := client.Call(tk, rd,
			[]wire.ImmArg{proc.U64Arg(ImmOff, 62*1024), proc.U64Arg(ImmLen, 4096)},
			[]proc.Arg{{Slot: SlotData, Cap: dst}}, SlotCont)
		if err != nil {
			t.Fatal(err)
		}
		if st := d.U64(0); st != StatusBounds {
			t.Errorf("oob read status = %d, want bounds", st)
		}

		// Destination too small.
		small, _ := client.MemoryCreate(tk, 8192, 1024, cap.MemRights)
		d, err = client.Call(tk, rd,
			[]wire.ImmArg{proc.U64Arg(ImmOff, 0), proc.U64Arg(ImmLen, 4096)},
			[]proc.Arg{{Slot: SlotData, Cap: small}}, SlotCont)
		if err != nil {
			t.Fatal(err)
		}
		if st := d.U64(0); st != StatusBounds {
			t.Errorf("small-dst status = %d, want bounds", st)
		}
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("deadlock")
	}
}

// TestVolumeIsolation: a second volume cannot see the first volume's
// data — volume ids preset in the Requests are immutable.
func TestVolumeIsolation(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		defer func() { done = true }()
		_, client, vc := setupAdaptor(tk, t, cl)
		_, wr1 := createVolume(tk, t, client, vc, 64*1024)
		rd2, _ := createVolume(tk, t, client, vc, 64*1024)

		secret := bytes.Repeat([]byte{0x5a}, 4096)
		copy(client.Arena(), secret)
		src, _ := client.MemoryCreate(tk, 0, 4096, cap.MemRights)
		d, _ := client.Call(tk, wr1,
			[]wire.ImmArg{proc.U64Arg(ImmOff, 0), proc.U64Arg(ImmLen, 4096)},
			[]proc.Arg{{Slot: SlotData, Cap: src}}, SlotCont)
		if st := d.U64(0); st != StatusOK {
			t.Fatalf("write status %d", st)
		}

		// Attempting to overwrite the preset volume id must fail.
		if _, err := client.Derive(tk, rd2, []wire.ImmArg{proc.U64Arg(ImmVol, 1)}, nil); !wire.IsStatus(err, wire.StatusImmutable) {
			t.Errorf("vol-id overwrite: err = %v, want immutable", err)
		}

		// Reading volume 2 at offset 0 sees zeros, not volume 1 data.
		dst, _ := client.MemoryCreate(tk, 8192, 4096, cap.MemRights)
		d, _ = client.Call(tk, rd2,
			[]wire.ImmArg{proc.U64Arg(ImmOff, 0), proc.U64Arg(ImmLen, 4096)},
			[]proc.Arg{{Slot: SlotData, Cap: dst}}, SlotCont)
		if st := d.U64(0); st != StatusOK {
			t.Fatalf("read status %d", st)
		}
		for _, b := range client.Arena()[8192 : 8192+4096] {
			if b != 0 {
				t.Fatal("volume isolation violated")
			}
		}
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("deadlock")
	}
}

// TestReadsWaitForStagingInArrivalOrder: twelve 1 MiB reads arriving 1 µs
// apart share the adaptor's eight staging buffers. The last four wait
// for one and take them as they come free, in arrival order, so the
// reads complete in the order they arrived; at quiescence all eight
// buffers are free and nothing waits.
func TestReadsWaitForStagingInArrivalOrder(t *testing.T) {
	const reads = 12
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		defer func() { done = true }()
		ad, client, vc := setupAdaptor(tk, t, cl)
		rd, _ := createVolume(tk, t, client, vc, reads*MaxIO)
		dst, err := client.MemoryCreate(tk, 0, MaxIO, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		var order []uint64
		var wg sim.WaitGroup
		wg.Add(reads)
		for i := uint64(0); i < reads; i++ {
			cl.K.Spawn("reader", func(rt *sim.Task) {
				defer wg.Done()
				rt.Sleep(sim.Time(i) * us(1))
				d, err := client.Call(rt, rd,
					[]wire.ImmArg{proc.U64Arg(ImmOff, i*MaxIO), proc.U64Arg(ImmLen, MaxIO)},
					[]proc.Arg{{Slot: SlotData, Cap: dst}}, SlotCont)
				if err != nil || d.U64(0) != StatusOK {
					t.Errorf("read %d: err %v", i, err)
					return
				}
				order = append(order, i)
			})
		}
		wg.Wait(tk)
		tk.Sleep(us(100))
		for i, v := range order {
			if v != uint64(i) {
				t.Errorf("reads completed in order %v, want arrival order", order)
				break
			}
		}
		if len(order) != reads || ad.stages.free != 1<<stagingBufs-1 || len(ad.stages.waiting) != 0 {
			t.Errorf("%d reads done, staging buffers free %b, %d operations waiting; want %d, all %d, 0",
				len(order), ad.stages.free, len(ad.stages.waiting), reads, stagingBufs)
		}
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("deadlock")
	}
}

// TestStagingTouchesOnlyBuffersInFlight: k 1 MiB reads held in flight
// at once take the k staging buffers with the lowest offsets, so the
// adaptor's memory materializes k × MaxIO bytes — the geometric cover of
// k buffers, exact for k a power of two — and not the 8 MiB it
// registered.
func TestStagingTouchesOnlyBuffersInFlight(t *testing.T) {
	for _, k := range []uint64{1, 2, 4} {
		cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
		got := -1
		cl.K.Spawn("main", func(tk *sim.Task) {
			ad, client, vc := setupAdaptor(tk, t, cl)
			rd, _ := createVolume(tk, t, client, vc, k*MaxIO)
			dst, err := client.MemoryCreate(tk, 0, MaxIO, cap.MemRights)
			if err != nil {
				t.Error(err)
				return
			}
			var wg sim.WaitGroup
			wg.Add(int(k))
			for i := uint64(0); i < k; i++ {
				cl.K.Spawn("reader", func(rt *sim.Task) {
					defer wg.Done()
					d, err := client.Call(rt, rd,
						[]wire.ImmArg{proc.U64Arg(ImmOff, i*MaxIO), proc.U64Arg(ImmLen, MaxIO)},
						[]proc.Arg{{Slot: SlotData, Cap: dst}}, SlotCont)
					if err != nil || d.U64(0) != StatusOK {
						t.Errorf("k=%d read %d: err %v", k, i, err)
					}
				})
			}
			wg.Wait(tk)
			ep, _ := cl.Net.Lookup(ad.P.Endpoint())
			got = ep.ArenaBytes()
		})
		cl.K.Run()
		cl.K.Shutdown()
		if want := int(k) * MaxIO; got != want {
			t.Errorf("%d reads in flight: adaptor materialized %d bytes, want %d", k, got, want)
		}
	}
}

// TestRefusedCopyAnswersCopyErr: a read into Memory the adaptor may not
// write, and a write from Memory it may not read, pass the adaptor's
// checks and fail at their memory_copy: each answers StatusCopyErr and
// gives its staging buffer back.
func TestRefusedCopyAnswersCopyErr(t *testing.T) {
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		defer func() { done = true }()
		ad, client, vc := setupAdaptor(tk, t, cl)
		rd, wr := createVolume(tk, t, client, vc, 64*1024)
		for _, tc := range []struct {
			name   string
			req    proc.Cap
			rights cap.Rights
		}{
			{"read into read-only Memory", rd, cap.Read | cap.Grant},
			{"write from write-only Memory", wr, cap.Write | cap.Grant},
		} {
			mem, err := client.MemoryCreate(tk, 0, 4096, tc.rights)
			if err != nil {
				t.Error(err)
				return
			}
			d, err := client.Call(tk, tc.req,
				[]wire.ImmArg{proc.U64Arg(ImmOff, 0), proc.U64Arg(ImmLen, 4096)},
				[]proc.Arg{{Slot: SlotData, Cap: mem}}, SlotCont)
			if err != nil {
				t.Error(err)
				return
			}
			if st := d.U64(0); st != StatusCopyErr {
				t.Errorf("%s: status %d, want copy error", tc.name, st)
			}
		}
		if ad.stages.free != 1<<stagingBufs-1 {
			t.Errorf("staging buffers free: %b, want all %d", ad.stages.free, stagingBufs)
		}
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("deadlock")
	}
}

// TestRefusedVolCreateLeavesNothingBehind: a VolCreate whose second
// request_create the capability quota refuses answers StatusDevErr and
// leaves nothing behind — no device space, no volume id, no Request. The
// request carries two capabilities the adaptor holds while it serves it,
// so the quota (the adaptor's 9 entries at rest, plus 4) runs out there;
// a VolCreate without them then gets the whole device, as volume 1, and
// the adaptor's capability count is back where it started in between.
func TestRefusedVolCreateLeavesNothingBehind(t *testing.T) {
	const atRest, entryBytes = 9, 40 // the adaptor's entries: 8 staging buffers and VolCreate
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3, Ctrl: core.Config{CapQuota: atRest + 4}})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) {
		defer func() { done = true }()
		ad, client, vc := setupAdaptor(tk, t, cl)
		entries := func() int64 { return cl.CtrlFor(2).Footprint().CapSpaceBytes / entryBytes }
		if n := entries(); n != atRest {
			t.Errorf("the adaptor holds %d capabilities at rest, want %d", n, atRest)
			return
		}
		var extra [2]proc.Arg
		for i := range extra {
			mem, err := client.MemoryCreate(tk, uint64(i)*4096, 4096, cap.MemRights)
			if err != nil {
				t.Error(err)
				return
			}
			extra[i] = proc.Arg{Slot: uint16(10 + i), Cap: mem}
		}
		capacity := uint64(ad.dev.Capacity())
		d, err := client.Call(tk, vc, []wire.ImmArg{proc.U64Arg(ImmVol, capacity/2)}, extra[:], SlotCont)
		if err != nil || d.U64(0) != StatusDevErr {
			t.Errorf("VolCreate over the quota: err %v, status %d, want device error", err, d.U64(0))
			return
		}
		tk.Sleep(us(100))
		if n := entries(); n != atRest {
			t.Errorf("the adaptor holds %d capabilities after a refused VolCreate, want %d", n, atRest)
		}
		d, err = client.Call(tk, vc, []wire.ImmArg{proc.U64Arg(ImmVol, capacity)}, nil, SlotCont)
		if err != nil || d.U64(0) != StatusOK || d.U64(ImmVol) != 1 {
			t.Errorf("VolCreate of the whole device: err %v, status %d, volume %d; want OK, volume 1", err, d.U64(0), d.U64(ImmVol))
		}
	})
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("deadlock")
	}
}
