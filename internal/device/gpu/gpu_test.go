package gpu

import (
	"encoding/binary"
	"testing"
	"time"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/device/nvme"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

func us(f float64) sim.Time { return sim.Time(f * float64(time.Microsecond)) }

// addKernel is a toy kernel: out[i] = a[i] + b[i] over n bytes.
// args: [0]=aAddr [1]=bAddr [2]=outAddr [3]=n
func addKernel(mem []byte, args []uint64) uint64 {
	if len(args) < 4 {
		return StatusBadArg
	}
	a, b, out, n := args[0], args[1], args[2], args[3]
	size := uint64(len(mem))
	if !wire.Within(a, n, size) || !wire.Within(b, n, size) || !wire.Within(out, n, size) {
		return StatusBadArg
	}
	for i := uint64(0); i < n; i++ {
		mem[out+i] = mem[a+i] + mem[b+i]
	}
	return 0
}

func runCluster(t *testing.T, fn func(tk *sim.Task, cl *core.Cluster)) {
	t.Helper()
	cl := core.NewCluster(core.ClusterConfig{Nodes: 3})
	done := false
	cl.K.Spawn("main", func(tk *sim.Task) { fn(tk, cl); done = true })
	cl.K.Run()
	cl.K.Shutdown()
	if !done {
		t.Fatal("test did not complete (deadlock?)")
	}
}

// setup builds a GPU with the add kernel, its adaptor on node 1, and a
// client on node 0 holding the ctx-init Request.
func setup(tk *sim.Task, t *testing.T, cl *core.Cluster) (*Adaptor, *proc.Process, proc.Cap) {
	t.Helper()
	dev := NewDevice(cl.K, DefaultMemSize)
	dev.Register("add", addKernel, func(args []uint64) sim.Time {
		if len(args) < 4 {
			return 0
		}
		return sim.Time(args[3]) * 2 // 2ns per byte
	})
	ad := NewAdaptor(cl, 1, "gpu0", dev)
	if err := ad.Start(tk); err != nil {
		t.Fatal(err)
	}
	client := proc.Attach(cl, 0, "client", 1<<20)
	ci, err := proc.GrantCap(ad.P, ad.CtxInit, client)
	if err != nil {
		t.Fatal(err)
	}
	return ad, client, ci
}

// initCtx performs the context handshake, returning alloc and load
// Requests.
func initCtx(tk *sim.Task, t *testing.T, client *proc.Process, ci proc.Cap) (alloc, load, free, cleanup proc.Cap) {
	t.Helper()
	d, err := client.Call(tk, ci, nil, nil, SlotCont)
	if err != nil {
		t.Fatalf("ctx init: %v", err)
	}
	var ok [4]bool
	alloc, ok[0] = d.Cap(SlotAlloc)
	load, ok[1] = d.Cap(SlotLoad)
	free, ok[2] = d.Cap(SlotFree)
	cleanup, ok[3] = d.Cap(SlotCleanup)
	for i, o := range ok {
		if !o {
			t.Fatalf("ctx reply missing cap %d", i)
		}
	}
	return
}

// gpuAlloc allocates GPU memory, returning the Memory cap and device
// address.
func gpuAlloc(tk *sim.Task, t *testing.T, client *proc.Process, alloc proc.Cap, size uint64) (proc.Cap, uint64) {
	t.Helper()
	d, err := client.Call(tk, alloc, []wire.ImmArg{proc.U64Arg(8, size)}, nil, SlotCont)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if st := d.U64(0); st != StatusOK {
		t.Fatalf("alloc status %d", st)
	}
	buf, ok := d.Cap(SlotBuf)
	if !ok {
		t.Fatal("alloc reply missing buffer cap")
	}
	return buf, d.U64(8)
}

// loadKernel loads a kernel by name, returning its invocation Request.
func loadKernel(tk *sim.Task, t *testing.T, client *proc.Process, load proc.Cap, name string) proc.Cap {
	t.Helper()
	d, err := client.Call(tk, load,
		[]wire.ImmArg{proc.U64Arg(8, uint64(len(name))), proc.BytesArg(16, []byte(name))},
		nil, SlotCont)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if st := d.U64(0); st != StatusOK {
		t.Fatalf("load status %d", st)
	}
	inv, ok := d.Cap(SlotKernel)
	if !ok {
		t.Fatal("load reply missing kernel request")
	}
	return inv
}

func TestEndToEndKernelExecution(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		ad, client, ci := setup(tk, t, cl)
		alloc, load, _, _ := initCtx(tk, t, client, ci)

		const n = 256
		bufA, addrA := gpuAlloc(tk, t, client, alloc, n)
		bufB, addrB := gpuAlloc(tk, t, client, alloc, n)
		bufOut, addrOut := gpuAlloc(tk, t, client, alloc, n)

		// Upload inputs from the client with memory_copy.
		for i := 0; i < n; i++ {
			client.Arena()[i] = byte(i)
			client.Arena()[n+i] = byte(2 * i)
		}
		inA, _ := client.MemoryCreate(tk, 0, n, cap.MemRights)
		inB, _ := client.MemoryCreate(tk, n, n, cap.MemRights)
		if err := client.MemoryCopy(tk, inA, bufA); err != nil {
			t.Fatalf("upload A: %v", err)
		}
		if err := client.MemoryCopy(tk, inB, bufB); err != nil {
			t.Fatalf("upload B: %v", err)
		}

		// Invoke: kernel args a, b, out, n; success continuation.
		inv := loadKernel(tk, t, client, load, "add")
		ao := ArgOffset(len("add"), 0)
		d, err := client.Call(tk, inv, []wire.ImmArg{
			proc.U64Arg(ao, addrA), proc.U64Arg(ao+8, addrB),
			proc.U64Arg(ao+16, addrOut), proc.U64Arg(ao+24, n),
		}, nil, SlotSuccess)
		if err != nil {
			t.Fatalf("invoke: %v", err)
		}
		if st := d.U64(0); st != StatusOK {
			t.Fatalf("kernel status %d", st)
		}

		// Download the result and verify the real compute.
		out, _ := client.MemoryCreate(tk, 2*n, n, cap.MemRights)
		if err := client.MemoryCopy(tk, bufOut, out); err != nil {
			t.Fatalf("download: %v", err)
		}
		for i := 0; i < n; i++ {
			if got, want := client.Arena()[2*n+i], byte(i)+byte(2*i); got != want {
				t.Fatalf("out[%d] = %d, want %d", i, got, want)
			}
		}
		if ad.dev.Launches != 1 {
			t.Errorf("launches = %d", ad.dev.Launches)
		}
	})
}

func TestKernelNamePreset(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		_, client, ci := setup(tk, t, cl)
		_, load, _, _ := initCtx(tk, t, client, ci)
		inv := loadKernel(tk, t, client, load, "add")
		// The kernel identity is immutable: overwriting the preset
		// name header must fail.
		if _, err := client.Derive(tk, inv, []wire.ImmArg{proc.U64Arg(8, 99)}, nil); !wire.IsStatus(err, wire.StatusImmutable) {
			t.Errorf("kernel-name overwrite: err = %v, want immutable", err)
		}
	})
}

func TestLoadUnknownKernel(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		_, client, ci := setup(tk, t, cl)
		_, load, _, _ := initCtx(tk, t, client, ci)
		name := "nonexistent"
		d, err := client.Call(tk, load,
			[]wire.ImmArg{proc.U64Arg(8, uint64(len(name))), proc.BytesArg(16, []byte(name))},
			nil, SlotCont)
		if err != nil {
			t.Fatal(err)
		}
		if st := d.U64(0); st != StatusNoKernel {
			t.Errorf("status = %d, want no-kernel", st)
		}
	})
}

// TestLoadBadNameLength: the name length is the client's word. One that
// is zero, runs past the immediates or wraps negative as an int is
// refused; the last used to slice Imms backwards and panic the adaptor.
func TestLoadBadNameLength(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		_, client, ci := setup(tk, t, cl)
		_, load, _, _ := initCtx(tk, t, client, ci)
		for _, nameLen := range []uint64{0, 4, 1 << 40, ^uint64(0) - 7, 1<<63 - 8} {
			d, err := client.Call(tk, load,
				[]wire.ImmArg{proc.U64Arg(8, nameLen), proc.BytesArg(16, []byte("add"))},
				nil, SlotCont)
			if err != nil {
				t.Error(err)
				return
			}
			if st := d.U64(0); st != StatusBadArg {
				t.Errorf("name length %#x: status = %d, want bad-arg", nameLen, st)
			}
		}
		// The adaptor is still serving.
		loadKernel(tk, t, client, load, "add")
	})
}

func TestErrorContinuationOnBadArgs(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		_, client, ci := setup(tk, t, cl)
		_, load, _, _ := initCtx(tk, t, client, ci)
		inv := loadKernel(tk, t, client, load, "add")
		// Invoke with too few args: the error continuation must fire.
		errReq, errTag, _ := client.ReplyRequest(tk)
		d, err := client.CallWith(tk, inv, nil, []proc.Arg{{Slot: SlotError, Cap: errReq}}, errReq, errTag)
		if err != nil {
			t.Fatal(err)
		}
		if st := d.U64(0); st != StatusBadArg {
			t.Errorf("error continuation status = %d, want bad-arg", st)
		}
	})
}

func TestAllocFreeCycle(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		_, client, ci := setup(tk, t, cl)
		alloc, _, free, cleanup := initCtx(tk, t, client, ci)
		_, addr := gpuAlloc(tk, t, client, alloc, 1<<10)
		// Free, then the space is reusable.
		d, err := client.Call(tk, free, []wire.ImmArg{proc.U64Arg(8, addr)}, nil, SlotCont)
		if err != nil {
			t.Fatal(err)
		}
		_ = d
		_, addr2 := gpuAlloc(tk, t, client, alloc, 1<<10)
		if addr2 != addr {
			t.Errorf("freed GPU memory not reused: %d vs %d", addr2, addr)
		}
		if _, err := client.Call(tk, cleanup, nil, nil, SlotCont); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKernelSerializationOnDevice: blocking Execs and adaptor
// invocations share one device and one FIFO. Six kernels of 110 µs
// arrive 20 µs apart, Execs and invocations alternating; each runs only
// once the one before it is over, in the order they arrived.
func TestKernelSerializationOnDevice(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := NewDevice(cl.K, DefaultMemSize)
		var order []uint64
		var ends []sim.Time
		dev.Register("tick", func(_ []byte, args []uint64) uint64 {
			order = append(order, args[0])
			ends = append(ends, cl.K.Now())
			return 0
		}, func([]uint64) sim.Time { return us(100) })
		ad := NewAdaptor(cl, 1, "gpu0", dev)
		if err := ad.Start(tk); err != nil {
			t.Fatal(err)
		}
		client := proc.Attach(cl, 0, "client", 0)
		ci, err := proc.GrantCap(ad.P, ad.CtxInit, client)
		if err != nil {
			t.Fatal(err)
		}
		_, load, _, _ := initCtx(tk, t, client, ci)
		inv := loadKernel(tk, t, client, load, "tick")
		ao := ArgOffset(len("tick"), 0)

		const kernels = 6
		var wg sim.WaitGroup
		wg.Add(kernels)
		for i := uint64(0); i < kernels; i++ {
			cl.K.Spawn("kernel", func(et *sim.Task) {
				defer wg.Done()
				et.Sleep(sim.Time(i) * us(20))
				if i%2 == 0 {
					if st, err := dev.Exec(et, "tick", nil, []uint64{i}); err != nil || st != StatusOK {
						t.Errorf("exec %d: status %d, err %v", i, st, err)
					}
					return
				}
				d, err := client.Call(et, inv, []wire.ImmArg{proc.U64Arg(ao, i)}, nil, SlotSuccess)
				if err != nil || d.U64(0) != StatusOK {
					t.Errorf("invocation %d: err %v", i, err)
				}
			})
		}
		wg.Wait(tk)
		for i, v := range order {
			if v != uint64(i) {
				t.Errorf("kernels ran in order %v, want arrival order", order)
				break
			}
		}
		for i := 1; i < len(ends); i++ {
			if gap := ends[i] - ends[i-1]; gap != us(110) {
				t.Errorf("kernel %d ended %v after kernel %d, want 110µs: one at a time", i, gap, i-1)
			}
		}
		if len(order) != kernels || dev.busy || len(dev.queue) != 0 {
			t.Errorf("%d kernels ran, device busy %v with %d queued; want %d, idle, none", len(order), dev.busy, len(dev.queue), kernels)
		}
	})
}

func TestKernelArgsDecoding(t *testing.T) {
	imms := make([]byte, 40)
	binary.LittleEndian.PutUint64(imms[24:], 7)
	binary.LittleEndian.PutUint64(imms[32:], 9)
	args := kernelArgs(nil, imms, 17) // rounds up to 24
	if len(args) != 2 || args[0] != 7 || args[1] != 9 {
		t.Fatalf("args = %v", args)
	}
	if got := ArgOffset(3, 1); got != 32 {
		t.Errorf("ArgOffset(3,1) = %d, want 32", got)
	}
}

// TestUpstreamFailurePropagates: a kernel Request chained as a failed
// service's continuation (non-zero status in imm[0:8)) must not run
// the kernel; the error continuation fires with the upstream status.
func TestUpstreamFailurePropagates(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		ad, client, ci := setup(tk, t, cl)
		_, load, _, _ := initCtx(tk, t, client, ci)
		inv := loadKernel(tk, t, client, load, "add")
		errReq, errTag, _ := client.ReplyRequest(tk)
		// Simulate the upstream service reporting failure 7.
		d, err := client.CallWith(tk, inv,
			[]wire.ImmArg{proc.U64Arg(0, 7)},
			[]proc.Arg{{Slot: SlotError, Cap: errReq}}, errReq, errTag)
		if err != nil {
			t.Fatal(err)
		}
		if st := d.U64(0); st != 7 {
			t.Errorf("error continuation status = %d, want upstream 7", st)
		}
		if ad.dev.Launches != 0 {
			t.Errorf("kernel launched %d times despite upstream failure", ad.dev.Launches)
		}
	})
}

// TestPipelineUpstreamFailureEndToEnd: a storage read that fails (out
// of volume bounds) must not run the kernel, and the failure reaches
// the application through the whole chain.
func TestPipelineUpstreamFailureEndToEnd(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		// Build GPU side.
		ad, client, ci := setup(tk, t, cl)
		alloc, load, _, _ := initCtx(tk, t, client, ci)
		buf, addr := gpuAlloc(tk, t, client, alloc, 4096)
		inv := loadKernel(tk, t, client, load, "add")

		// Build storage side on node 2.
		nd := nvme.NewDevice(cl.K, nvme.DefaultCapacity)
		na := nvme.NewAdaptor(cl, 2, "nvme0", nd)
		if err := na.Start(tk); err != nil {
			t.Fatal(err)
		}
		vc, _ := proc.GrantCap(na.P, na.VolCreate, client)
		vd, err := client.Call(tk, vc, []wire.ImmArg{proc.U64Arg(nvme.ImmVol, 64<<10)}, nil, nvme.SlotCont)
		if err != nil || vd.U64(0) != 0 {
			t.Fatalf("volcreate: %v/%d", err, vd.U64(0))
		}
		rd, _ := vd.Cap(nvme.SlotVolRead)

		// Chain: block read (deliberately out of bounds) → kernel.
		ao := ArgOffset(len("add"), 0)
		reply, tag, _ := client.ReplyRequest(tk)
		kr, err := client.Derive(tk, inv,
			[]wire.ImmArg{proc.BytesArg(ao, make([]byte, 32))},
			[]proc.Arg{{Slot: SlotSuccess, Cap: reply}, {Slot: SlotError, Cap: reply}})
		if err != nil {
			t.Fatal(err)
		}
		d, err := client.CallWith(tk, rd,
			[]wire.ImmArg{proc.U64Arg(nvme.ImmOff, 60<<10), proc.U64Arg(nvme.ImmLen, 8<<10)}, // past the volume end
			[]proc.Arg{{Slot: nvme.SlotData, Cap: buf}, {Slot: nvme.SlotCont, Cap: kr}}, reply, tag)
		if err != nil {
			t.Fatal(err)
		}
		if st := d.U64(0); st == 0 {
			t.Error("chained failure reported success to the application")
		}
		if ad.dev.Launches != 0 {
			t.Errorf("kernel ran %d times on a failed read", ad.dev.Launches)
		}
		_ = addr
	})
}
