package gpu

import (
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// invokeAsync invokes a kernel with distinct success and error
// continuations and returns the futures of their invocations.
func invokeAsync(tk *sim.Task, client *proc.Process, inv proc.Cap, imms []wire.ImmArg) (ok, fail *sim.Future[*proc.Delivery], err error) {
	okReq, okTag, err := client.ReplyRequest(tk)
	if err != nil {
		return nil, nil, err
	}
	errReq, errTag, err := client.ReplyRequest(tk)
	if err != nil {
		return nil, nil, err
	}
	ok, fail = client.WaitTag(okTag), client.WaitTag(errTag)
	err = client.Invoke(tk, inv, imms, []proc.Arg{{Slot: SlotSuccess, Cap: okReq}, {Slot: SlotError, Cap: errReq}})
	return ok, fail, err
}

// addArgs are the add kernel's arguments.
func addArgs(a, b, out, n uint64) []wire.ImmArg {
	ao := ArgOffset(len("add"), 0)
	return []wire.ImmArg{proc.U64Arg(ao, a), proc.U64Arg(ao+8, b), proc.U64Arg(ao+16, out), proc.U64Arg(ao+24, n)}
}

// TestQueuedKernelSeesGrownMemory: a kernel queued behind another one
// runs on GPU memory as it is when its turn comes. While it waits, a new
// buffer and a memory_copy into it grow the adaptor's materialized
// memory past the prefix it had at invocation; the queued kernel's
// output must still land where the client reads it back. A device that
// took its view of memory when the invocation arrived would compute into
// storage the growth had already replaced.
func TestQueuedKernelSeesGrownMemory(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		ad, client, ci := setup(tk, t, cl)
		ad.dev.Register("hold", func([]byte, []uint64) uint64 { return 0 }, func([]uint64) sim.Time { return us(1000) })
		alloc, load, _, _ := initCtx(tk, t, client, ci)

		const n = 256
		bufA, addrA := gpuAlloc(tk, t, client, alloc, n)
		bufB, addrB := gpuAlloc(tk, t, client, alloc, n)
		bufOut, addrOut := gpuAlloc(tk, t, client, alloc, n)
		for i := 0; i < n; i++ {
			client.Arena()[i] = byte(i)
			client.Arena()[n+i] = byte(3 * i)
		}
		inA, _ := client.MemoryCreate(tk, 0, n, cap.MemRights)
		inB, _ := client.MemoryCreate(tk, n, n, cap.MemRights)
		if err := client.MemoryCopy(tk, inA, bufA); err != nil {
			t.Errorf("upload A: %v", err)
			return
		}
		if err := client.MemoryCopy(tk, inB, bufB); err != nil {
			t.Errorf("upload B: %v", err)
			return
		}

		hold := loadKernel(tk, t, client, load, "hold")
		add := loadKernel(tk, t, client, load, "add")
		holdOK, _, err := invokeAsync(tk, client, hold, nil)
		if err != nil {
			t.Error(err)
			return
		}
		addOK, addFail, err := invokeAsync(tk, client, add, addArgs(addrA, addrB, addrOut, n))
		if err != nil {
			t.Error(err)
			return
		}

		// While add waits behind hold: a buffer past the old prefix, and
		// a memory_copy that makes the adaptor materialize it.
		const big = 64 << 10
		bufBig, _ := gpuAlloc(tk, t, client, alloc, big)
		src, _ := client.MemoryCreate(tk, 4096, big, cap.MemRights)
		if err := client.MemoryCopy(tk, src, bufBig); err != nil {
			t.Errorf("upload big: %v", err)
			return
		}
		if ad.dev.Launches != 0 || holdOK.Done() {
			t.Errorf("the memory grew after the kernels ran (launches %d): the test needs a longer hold", ad.dev.Launches)
			return
		}

		d, err := addOK.Wait(tk)
		if err != nil || addFail.Done() {
			t.Errorf("add: err %v, error continuation %v", err, addFail.Done())
			return
		}
		d.Done()
		out, _ := client.MemoryCreate(tk, 2*n, n, cap.MemRights)
		if err := client.MemoryCopy(tk, bufOut, out); err != nil {
			t.Errorf("download: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if got, want := client.Arena()[2*n+i], byte(i)+byte(3*i); got != want {
				t.Errorf("out[%d] = %d, want %d", i, got, want)
				return
			}
		}
	})
}

// TestKernelSeesOnlyAllocatedMemory: kernel arguments are untrusted
// immediates, and a kernel sees GPU memory only up to the end of the
// highest buffer the adaptor has handed out. An address past it but
// inside the device's memory size is out of the kernel's bounds — a
// fault on a real GPU — so the invocation takes its error continuation
// with a non-OK status instead of computing on zeros.
func TestKernelSeesOnlyAllocatedMemory(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		_, client, ci := setup(tk, t, cl)
		alloc, load, _, _ := initCtx(tk, t, client, ci)
		const n = 256
		_, addrA := gpuAlloc(tk, t, client, alloc, n)
		_, addrOut := gpuAlloc(tk, t, client, alloc, n)
		add := loadKernel(tk, t, client, load, "add")
		past := addrOut + n // the end of the highest buffer handed out: the allocator is first-fit
		for _, args := range [][4]uint64{
			{addrA, past, addrOut, n},       // an input past the high-water mark
			{addrA, addrA, 1 << 20, n},      // an output far past it, inside MemSize
			{addrA, addrA, past - n + 1, n}, // an output straddling it
		} {
			ok, fail, err := invokeAsync(tk, client, add, addArgs(args[0], args[1], args[2], args[3]))
			if err != nil {
				t.Error(err)
				return
			}
			d, err := fail.WaitTimeout(tk, us(1000))
			if err != nil || ok.Done() {
				t.Errorf("args %v: error continuation %v (%v), success continuation %v", args, err == nil, err, ok.Done())
				return
			}
			if st := d.U64(0); st == StatusOK {
				t.Errorf("args %v: error continuation carries status OK", args)
			}
			d.Done()
		}
		// An invocation inside the allocated memory still computes.
		ok, _, err := invokeAsync(tk, client, add, addArgs(addrA, addrA, addrOut, n))
		if err != nil {
			t.Error(err)
			return
		}
		if d, err := ok.WaitTimeout(tk, us(1000)); err != nil || d.U64(0) != StatusOK {
			t.Errorf("in-bounds invocation: err %v", err)
		}
	})
}
