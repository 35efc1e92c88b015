package fs

import (
	"bytes"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/device/nvme"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

func us(f float64) sim.Time { return testbed.USec(f) }

// stack assembles the paper's storage stack on a 3-node cluster:
// NVMe + adaptor on node 2, FS service on node 1, client on node 0.
type stack struct {
	cl     *core.Cluster
	dev    *nvme.Device
	ad     *nvme.Adaptor
	svc    *Service
	client *proc.Process
	open   proc.Cap
	close_ proc.Cap
}

func buildStack(tk *sim.Task, t *testing.T, cl *core.Cluster) *stack {
	t.Helper()
	dev := nvme.NewDevice(cl.K, nvme.DefaultCapacity)
	ad := nvme.NewAdaptor(cl, 2, "nvme0", dev)
	if err := ad.Start(tk); err != nil {
		t.Fatal(err)
	}
	svc := NewService(cl, 1, "fs0")
	if err := svc.Wire(ad); err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(tk); err != nil {
		t.Fatal(err)
	}
	client := proc.Attach(cl, 0, "client", 8<<20)
	open, err := proc.GrantCap(svc.P, svc.Open, client)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := proc.GrantCap(svc.P, svc.Close, client)
	if err != nil {
		t.Fatal(err)
	}
	return &stack{cl: cl, dev: dev, ad: ad, svc: svc, client: client, open: open, close_: cls}
}

func runStack(t *testing.T, fn func(tk *sim.Task, st *stack)) {
	t.Helper()
	testbed.RunT(t, testbed.Spec{Nodes: 3},
		func(tk *sim.Task, d *testbed.Deployment) {
			fn(tk, buildStack(tk, t, d.Cl))
		})
}

// mem allocates and registers n bytes of client arena at off.
func (st *stack) mem(tk *sim.Task, t *testing.T, off, n uint64) proc.Cap {
	t.Helper()
	c, err := st.client.MemoryCreate(tk, off, n, cap.MemRights)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFSModeWriteReadRoundTrip(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f, err := OpenFile(tk, st.client, st.open, "data.bin", OpenRead|OpenWrite|OpenCreate, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("filesys!"), 1024) // 8 KiB
		copy(st.client.Arena(), payload)
		src := st.mem(tk, t, 0, uint64(len(payload)))
		if err := f.WriteAt(tk, 4096, uint64(len(payload)), src); err != nil {
			t.Fatalf("write: %v", err)
		}
		dst := st.mem(tk, t, 1<<20, uint64(len(payload)))
		if err := f.ReadAt(tk, 4096, uint64(len(payload)), dst); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(st.client.Arena()[1<<20:(1<<20)+len(payload)], payload) {
			t.Fatal("FS round trip corrupted data")
		}
	})
}

func TestOpenMissingFileFails(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		if _, err := OpenFile(tk, st.client, st.open, "nope", OpenRead, 0); err == nil {
			t.Fatal("open of missing file succeeded")
		}
	})
}

func TestOpenReadOnlyGivesNoWriteRequest(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		if _, err := OpenFile(tk, st.client, st.open, "ro.bin", OpenRead|OpenWrite|OpenCreate, 4096); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFile(tk, st.client, st.open, "ro.bin", OpenRead, 0)
		if err != nil {
			t.Fatal(err)
		}
		src := st.mem(tk, t, 0, 4096)
		if err := f.WriteAt(tk, 0, 4096, src); err == nil {
			t.Fatal("write through read-only open succeeded")
		}
	})
}

func TestMultiExtentFile(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		// 3 MiB file = 3 extents; write a span crossing the 1st/2nd
		// extent boundary.
		f, err := OpenFile(tk, st.client, st.open, "big.bin", OpenRead|OpenWrite|OpenCreate, 3<<20)
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(256 << 10)
		off := uint64(ExtentSize) - n/2
		payload := bytes.Repeat([]byte{0xc3}, int(n))
		copy(st.client.Arena(), payload)
		src := st.mem(tk, t, 0, n)
		if err := f.WriteAt(tk, off, n, src); err != nil {
			t.Fatalf("cross-extent write: %v", err)
		}
		dst := st.mem(tk, t, 1<<20, n)
		if err := f.ReadAt(tk, off, n, dst); err != nil {
			t.Fatalf("cross-extent read: %v", err)
		}
		if !bytes.Equal(st.client.Arena()[1<<20:(1<<20)+int(n)], payload) {
			t.Fatal("cross-extent data corrupted")
		}
	})
}

func TestReadBeyondEOF(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f, _ := OpenFile(tk, st.client, st.open, "small.bin", OpenRead|OpenWrite|OpenCreate, 4096)
		dst := st.mem(tk, t, 0, 8192)
		if err := f.ReadAt(tk, 0, 8192, dst); err == nil {
			t.Fatal("read beyond EOF succeeded")
		}
		// An offset whose sum with the length wraps is beyond EOF too, on
		// every path.
		dax, _ := OpenFile(tk, st.client, st.open, "small.bin", OpenRead|OpenDAX, 0)
		for what, read := range map[string]func(*sim.Task, uint64, uint64, proc.Cap) error{
			"FS": f.ReadAt, "direct": f.DirectReadAt, "DAX": dax.ReadAt,
		} {
			if err := read(tk, ^uint64(0)-100, 8192, dst); err == nil {
				t.Errorf("%s read at an offset that wraps succeeded", what)
			}
		}
	})
}

func TestDAXModeRoundTrip(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f, err := OpenFile(tk, st.client, st.open, "dax.bin", OpenRead|OpenWrite|OpenCreate|OpenDAX, 2<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !f.DAX {
			t.Fatal("not in DAX mode")
		}
		payload := bytes.Repeat([]byte("directacc"), 2048)
		copy(st.client.Arena(), payload)
		src := st.mem(tk, t, 0, uint64(len(payload)))
		if err := f.WriteAt(tk, 1000, uint64(len(payload)), src); err != nil {
			t.Fatalf("dax write: %v", err)
		}
		dst := st.mem(tk, t, 1<<20, uint64(len(payload)))
		if err := f.ReadAt(tk, 1000, uint64(len(payload)), dst); err != nil {
			t.Fatalf("dax read: %v", err)
		}
		if !bytes.Equal(st.client.Arena()[1<<20:(1<<20)+len(payload)], payload) {
			t.Fatal("DAX round trip corrupted data")
		}
	})
}

// TestDAXSeesFSWrites: both modes address the same extents, so data
// written through the FS is visible via DAX and vice versa.
func TestDAXSeesFSWrites(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		fsF, err := OpenFile(tk, st.client, st.open, "shared.bin", OpenRead|OpenWrite|OpenCreate, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("written through the FS layer")
		copy(st.client.Arena(), payload)
		src := st.mem(tk, t, 0, uint64(len(payload)))
		if err := fsF.WriteAt(tk, 0, uint64(len(payload)), src); err != nil {
			t.Fatal(err)
		}
		daxF, err := OpenFile(tk, st.client, st.open, "shared.bin", OpenRead|OpenDAX, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := st.mem(tk, t, 4096, uint64(len(payload)))
		if err := daxF.ReadAt(tk, 0, uint64(len(payload)), dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.client.Arena()[4096:4096+len(payload)], payload) {
			t.Fatal("DAX read did not see FS write")
		}
	})
}

// TestDAXReadOnlyCannotWrite: a read-only DAX open must not allow
// writes to the device, even though the client talks to it directly —
// the FS simply never delegates the write lease.
func TestDAXReadOnlyCannotWrite(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		if _, err := OpenFile(tk, st.client, st.open, "rodax.bin", OpenRead|OpenWrite|OpenCreate, 4096); err != nil {
			t.Fatal(err)
		}
		f, err := OpenFile(tk, st.client, st.open, "rodax.bin", OpenRead|OpenDAX, 0)
		if err != nil {
			t.Fatal(err)
		}
		src := st.mem(tk, t, 0, 4096)
		if err := f.WriteAt(tk, 0, 4096, src); err == nil {
			t.Fatal("read-only DAX client wrote to device")
		}
	})
}

// TestCloseRevokesDAXLeases: after close, the delegated block-device
// leases are revoked at their owner — the saved Requests are dead.
func TestCloseRevokesDAXLeases(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		f, err := OpenFile(tk, st.client, st.open, "lease.bin", OpenRead|OpenWrite|OpenCreate|OpenDAX, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		dst := st.mem(tk, t, 0, 4096)
		if err := f.ReadAt(tk, 0, 4096, dst); err != nil {
			t.Fatalf("pre-close read: %v", err)
		}
		// Keep a raw copy of the lease and close.
		handle := f.Handle
		_ = handle
		leaseRead := func() error { return f.ReadAt(tk, 0, 4096, dst) }
		if err := f.Close(tk, st.close_); err != nil {
			t.Fatalf("close: %v", err)
		}
		f.p = st.client // resurrect the handle to probe the dead lease
		if err := leaseRead(); err == nil {
			t.Fatal("DAX lease usable after close")
		}
		// A second client's open is unaffected: fresh leases.
		f2, err := OpenFile(tk, st.client, st.open, "lease.bin", OpenRead|OpenDAX, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := f2.ReadAt(tk, 0, 4096, dst); err != nil {
			t.Fatalf("fresh lease broken: %v", err)
		}
	})
}

// TestDAXFasterThanFS reproduces the core of §6.4: for reads whose
// size makes network transfers dominate, DAX (one transfer) beats the
// FS path (two transfers) by a noticeable factor.
func TestDAXFasterThanFS(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		const n = 512 << 10
		fsF, err := OpenFile(tk, st.client, st.open, "perf.bin", OpenRead|OpenWrite|OpenCreate, n)
		if err != nil {
			t.Fatal(err)
		}
		daxF, err := OpenFile(tk, st.client, st.open, "perf.bin", OpenRead|OpenDAX, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := st.mem(tk, t, 0, n)

		start := tk.Now()
		if err := fsF.ReadAt(tk, 0, n, dst); err != nil {
			t.Fatal(err)
		}
		fsTime := tk.Now() - start

		start = tk.Now()
		if err := daxF.ReadAt(tk, 0, n, dst); err != nil {
			t.Fatal(err)
		}
		daxTime := tk.Now() - start

		if daxTime >= fsTime {
			t.Errorf("DAX (%v) not faster than FS (%v)", daxTime, fsTime)
		}
		speedup := float64(fsTime) / float64(daxTime)
		if speedup < 1.2 {
			t.Errorf("DAX speedup = %.2fx, want >1.2x for 512KiB reads (§6.4 reports ~1.3x)", speedup)
		}
	})
}

// TestFSLeavesNothingBehind is faceverify's TestFaceVerifyLeavesNothingBehind
// for the storage stack: FS-mode reads and writes spanning three extents,
// DAX reads, and an FS-mode read that fails half-way because the client
// revokes its Memory, leave every Controller's capability spaces and
// object tree as large as the warm-up left them. (With a staging view and
// a client view derived per extent span, each span left two objects
// behind, and a failed span their entries too.)
func TestFSLeavesNothingBehind(t *testing.T) {
	runStack(t, func(tk *sim.Task, st *stack) {
		const n = ExtentSize + 8192 // from 4 KiB before extent 1 to 4 KiB into extent 2
		off := uint64(ExtentSize - 4096)
		f, err := OpenFile(tk, st.client, st.open, "big.bin", OpenRead|OpenWrite|OpenCreate, 3<<20)
		if err != nil {
			t.Error(err)
			return
		}
		dax, err := OpenFile(tk, st.client, st.open, "big.bin", OpenRead|OpenDAX, 0)
		if err != nil {
			t.Error(err)
			return
		}
		buf, small := st.mem(tk, t, 0, n), st.mem(tk, t, 4<<20, 4096)
		run := func(rounds int) bool {
			for i := 0; i < rounds; i++ {
				op := f.WriteAt
				if i%2 == 1 {
					op = f.ReadAt
				}
				if err := op(tk, off, n, buf); err != nil {
					t.Errorf("FS-mode operation %d: %v", i, err)
					return false
				}
				if err := dax.ReadAt(tk, uint64(i%3)*ExtentSize+uint64(i)*512, 4096, small); err != nil {
					t.Errorf("DAX read %d: %v", i, err)
					return false
				}
			}
			// A read whose destination is revoked while its second span is
			// on its way fails, and leaves nothing behind either.
			doomed := st.mem(tk, t, 5<<20, n)
			st.cl.K.Spawn("revoker", func(rt *sim.Task) {
				rt.Sleep(us(400))
				if err := st.client.Revoke(rt, doomed); err != nil {
					t.Error(err)
				}
			})
			if err := f.ReadAt(tk, off, n, doomed); err == nil {
				t.Error("read into a Memory revoked half-way succeeded")
				return false
			}
			tk.Sleep(us(200)) // the last acknowledgements and the revocation's cleanup
			return true
		}
		census := func() (c [3][2]int64) {
			for i, ctrl := range st.cl.Ctrls {
				c[i] = [2]int64{ctrl.Footprint().CapSpaceBytes, int64(ctrl.ObjectCount())}
			}
			return c
		}
		if !run(8) {
			return
		}
		warm := census()
		if !run(200) {
			return
		}
		if got := census(); got != warm {
			t.Errorf("{cap-space bytes, objects} per Controller after 200 rounds = %v, after the warm-up %v", got, warm)
		}
	})
}
