package faceverify

import (
	"math"
	"math/rand"
	"testing"

	"fractos/internal/core"
	"fractos/internal/device/gpu"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

// newTestDevice builds a GPU with the face-verification kernel.
func newTestDevice(k *sim.Kernel) *gpu.Device {
	dev := gpu.NewDevice(k, gpu.DefaultMemSize)
	RegisterKernel(dev)
	return dev
}

func runApp(t *testing.T, placement core.Placement, fn func(tk *sim.Task, cl *core.Cluster)) {
	t.Helper()
	testbed.RunT(t, testbed.Spec{Nodes: 4, Placement: placement},
		func(tk *sim.Task, d *testbed.Deployment) { fn(tk, d.Cl) })
}

func TestKernelVerdicts(t *testing.T) {
	db := NewDB(64, 7)
	rng := rand.New(rand.NewSource(1))
	// Build GPU memory by hand and run the kernel function directly.
	req := MakeRequest(db, 0, 16, rng)
	mem := make([]byte, 16*ImgSize+16*ProbeSize+16)
	copy(mem, db.BatchFile(0, 16))
	copy(mem[16*ImgSize:], req.Probes)
	out := uint64(16*ImgSize + 16*ProbeSize)

	// Registering on a device requires a kernel; reuse its function by
	// executing through the device with zero-cost timing.
	k := sim.New(1)
	done := false
	k.Spawn("exec", func(tk *sim.Task) {
		defer func() { done = true }()
		dev := newTestDevice(k)
		st, err := dev.Exec(tk, KernelName, mem, []uint64{0, 16 * ImgSize, out, 16})
		if err != nil || st != 0 {
			t.Errorf("exec: st=%d err=%v", st, err)
			return
		}
		if !req.CheckResults(mem[out:]) {
			t.Error("kernel verdicts disagree with ground truth")
		}
	})
	k.Run()
	k.Shutdown()
	if !done {
		t.Fatal("deadlock")
	}
}

// TestKernelRejectsOutOfRangeArgs hands the kernel, through the
// device, the offsets a broken or hostile kernel Request can carry:
// each of db, probe and out in turn at 2⁶⁴−1, at 2⁶³, at its exact fit
// and one past it. Only the exact fits run, and nothing panics.
func TestKernelRejectsOutOfRangeArgs(t *testing.T) {
	mem := make([]byte, ImgSize+ProbeSize+1)
	fit := []uint64{0, ImgSize, ImgSize + ProbeSize} // db, probe, out for a batch of 1
	extent := []uint64{ImgSize, ProbeSize, 1}
	k := sim.New(1)
	k.Spawn("exec", func(tk *sim.Task) {
		dev := newTestDevice(k)
		for i := range fit {
			last := uint64(len(mem)) - extent[i]
			for _, v := range []uint64{math.MaxUint64, 1 << 63, last, last + 1} {
				args := append(append([]uint64(nil), fit...), 1)
				args[i] = v
				st, err := dev.Exec(tk, KernelName, mem, args)
				if err != nil || (st == 0) != (v == last) {
					t.Errorf("args %v: status %d, err %v", args, st, err)
				}
			}
		}
	})
	k.Run()
	k.Shutdown()
}

func TestFractOSEndToEnd(t *testing.T) {
	runApp(t, core.CtrlOnCPU, func(tk *sim.Task, cl *core.Cluster) {
		app, err := SetupFractOS(tk, cl, Config{Batch: 8, Files: 2, Slots: 2})
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 4; i++ {
			req := MakeRequest(app.DB, i%2, 8, rng)
			out, err := app.VerifyBatch(tk, req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if !req.CheckResults(out) {
				t.Fatalf("request %d: wrong verdicts %v (genuine %v)", i, out, req.Genuine)
			}
		}
	})
}

func TestFractOSEndToEndSNIC(t *testing.T) {
	runApp(t, core.CtrlOnSNIC, func(tk *sim.Task, cl *core.Cluster) {
		app, err := SetupFractOS(tk, cl, Config{Batch: 4, Files: 1, Slots: 1})
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		rng := rand.New(rand.NewSource(4))
		req := MakeRequest(app.DB, 0, 4, rng)
		out, err := app.VerifyBatch(tk, req)
		if err != nil {
			t.Fatal(err)
		}
		if !req.CheckResults(out) {
			t.Fatal("wrong verdicts on sNIC deployment")
		}
	})
}

func TestBaselineEndToEnd(t *testing.T) {
	runApp(t, core.CtrlOnCPU, func(tk *sim.Task, cl *core.Cluster) {
		app, err := SetupBaseline(tk, cl, Config{Batch: 8, Files: 2, Slots: 2})
		if err != nil {
			t.Fatalf("setup: %v", err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 4; i++ {
			req := MakeRequest(app.DB, i%2, 8, rng)
			out, err := app.VerifyBatch(tk, req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if !req.CheckResults(out) {
				t.Fatalf("request %d: wrong verdicts", i)
			}
		}
	})
}

// TestPipelineSurvivesStorageFailure: killing the block adaptor makes
// subsequent requests fail with errors rather than hang — the
// adaptor's Controller revoked everything it provided, and the
// frontend observes dead capabilities (§3.6).
func TestPipelineSurvivesStorageFailure(t *testing.T) {
	runApp(t, core.CtrlOnCPU, func(tk *sim.Task, cl *core.Cluster) {
		app, err := SetupFractOS(tk, cl, Config{Batch: 8, Files: 2, Slots: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		req := MakeRequest(app.DB, 0, 8, rng)
		if out, err := app.VerifyBatch(tk, req); err != nil || !req.CheckResults(out) {
			t.Fatalf("healthy request failed: %v", err)
		}

		// Kill the NVMe adaptor Process: the storage Controller
		// revokes everything it provided, including the DAX leases.
		if !cl.CtrlFor(NodeStorage).FailProcess(app.nvmeAd.P.ID()) {
			t.Fatal("could not fail the adaptor")
		}
		tk.Sleep(500 * 1000)

		done := sim.NewFuture[error]()
		cl.K.Spawn("post-failure", func(pt *sim.Task) {
			_, err := app.VerifyBatch(pt, MakeRequest(app.DB, 1, 8, rng))
			done.Set(err)
		})
		err2, werr := done.WaitTimeout(tk, 50*1000*1000) // 50ms virtual
		if werr != nil {
			t.Fatal("request against dead storage hung")
		}
		if err2 == nil {
			t.Fatal("request against dead storage succeeded")
		}
	})
}

// TestFractOSFasterAndLeaner reproduces the headline claims of §6.5 in
// miniature: for the same requests, FractOS has lower latency and
// moves fewer bytes across the switch than the baseline stack.
func TestFractOSFasterAndLeaner(t *testing.T) {
	// One fresh file per request: the paper's random-read pattern that
	// defeats the FS-node page cache (§6.4).
	cfg := Config{Batch: 32, Files: 4, Slots: 2}
	measure := func(setup func(tk *sim.Task, cl *core.Cluster) (func(*sim.Task, *Request) ([]byte, error), *DB)) (lat sim.Time, bytes int64) {
		testbed.RunT(t, testbed.Spec{Nodes: 4, Placement: core.CtrlOnCPU},
			func(tk *sim.Task, d *testbed.Deployment) {
				cl := d.Cl
				verify, db := setup(tk, cl)
				rng := rand.New(rand.NewSource(9))
				reqs := make([]*Request, 4)
				for i := range reqs {
					reqs[i] = MakeRequest(db, i, cfg.Batch, rng)
				}
				before := cl.Net.Stats()
				start := tk.Now()
				for _, r := range reqs {
					if out, err := verify(tk, r); err != nil || !r.CheckResults(out) {
						t.Errorf("verify failed: %v", err)
						return
					}
				}
				lat = (tk.Now() - start) / sim.Time(len(reqs))
				bytes = cl.Net.Stats().Sub(before).CrossNodeBytes / int64(len(reqs))
			})
		return lat, bytes
	}

	fLat, fBytes := measure(func(tk *sim.Task, cl *core.Cluster) (func(*sim.Task, *Request) ([]byte, error), *DB) {
		app, err := SetupFractOS(tk, cl, cfg)
		if err != nil {
			t.Fatalf("fractos setup: %v", err)
		}
		return app.VerifyBatch, app.DB
	})
	bLat, bBytes := measure(func(tk *sim.Task, cl *core.Cluster) (func(*sim.Task, *Request) ([]byte, error), *DB) {
		app, err := SetupBaseline(tk, cl, cfg)
		if err != nil {
			t.Fatalf("baseline setup: %v", err)
		}
		return app.VerifyBatch, app.DB
	})

	t.Logf("latency: fractos=%v baseline=%v (%.0f%% faster)", fLat, bLat,
		100*(float64(bLat)-float64(fLat))/float64(fLat))
	t.Logf("cross-node bytes/request: fractos=%d baseline=%d (%.2fx)", fBytes, bBytes,
		float64(bBytes)/float64(fBytes))
	if fLat >= bLat {
		t.Errorf("FractOS latency %v not below baseline %v", fLat, bLat)
	}
	if float64(bBytes) < 1.5*float64(fBytes) {
		t.Errorf("traffic reduction %.2fx, want >1.5x (paper: ~3x incl. control)", float64(bBytes)/float64(fBytes))
	}
}

// TestFaceVerifyLeavesNothingBehind: a request in steady state mints
// nothing — after a warm-up, a thousand more requests, direct and ring,
// leave every Controller's capability spaces and object tree exactly as
// large as they were. (Before memory_copy took a range, the slot kept its
// kernel Request and deliveries handed their capabilities back, each
// request left 4 entries and 2 objects behind.)
func TestFaceVerifyLeavesNothingBehind(t *testing.T) {
	runApp(t, core.CtrlOnCPU, func(tk *sim.Task, cl *core.Cluster) {
		app, err := SetupFractOS(tk, cl, Config{Batch: 4, Files: 4, Slots: 2})
		if err == nil {
			err = app.EnableRing(tk)
		}
		if err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		rng := rand.New(rand.NewSource(9))
		run := func(n int) bool {
			for i := 0; i < n; i++ {
				req := MakeRequest(app.DB, i%4, 4, rng)
				verify := app.VerifyBatch
				if i%2 == 1 {
					verify = app.RingVerify
				}
				if out, err := verify(tk, req); err != nil || !req.CheckResults(out) {
					t.Errorf("request %d: err %v, verdicts %v", i, err, out)
					return false
				}
			}
			// The last acknowledgements are still on their way.
			tk.Sleep(sim.Time(100_000))
			return true
		}
		census := func() (n [4][2]int64) {
			for i, c := range cl.Ctrls {
				n[i] = [2]int64{c.Footprint().CapSpaceBytes, int64(c.ObjectCount())}
			}
			return n
		}
		if !run(64) {
			return
		}
		warm := census()
		if !run(1000) {
			return
		}
		if got := census(); got != warm {
			t.Errorf("{cap-space bytes, objects} per Controller after 1000 requests = %v, after the warm-up %v", got, warm)
		}
	})
}
