package baseline

import (
	"bytes"
	"testing"

	"fractos/internal/core"
	"fractos/internal/device/gpu"
	"fractos/internal/device/nvme"
	"fractos/internal/fs"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

func us(f float64) sim.Time { return testbed.USec(f) }

func runCluster(t *testing.T, fn func(tk *sim.Task, cl *core.Cluster)) {
	t.Helper()
	testbed.RunT(t, testbed.Spec{Nodes: 3},
		func(tk *sim.Task, d *testbed.Deployment) { fn(tk, d.Cl) })
}

func TestNVMeoFReadWrite(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, nvme.DefaultConfig())
		tg := NewNVMeoFTarget(cl.K, cl.Net, 2, dev)
		ini := NewNVMeoFInitiator(cl.K, cl.Net, 0, tg, false)
		off, err := ini.Alloc(tk, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		in := bytes.Repeat([]byte("nvmeof!!"), 1024)
		if err := ini.Write(tk, off+4096, in); err != nil {
			t.Fatal(err)
		}
		out, err := ini.Read(tk, off+4096, len(in))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(in, out) {
			t.Fatal("nvmeof corrupted data")
		}
	})
}

func TestNVMeoFCacheAbsorbsWrites(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, nvme.DefaultConfig())
		tg := NewNVMeoFTarget(cl.K, cl.Net, 2, dev)
		cached := NewNVMeoFInitiator(cl.K, cl.Net, 0, tg, true)
		raw := NewNVMeoFInitiator(cl.K, cl.Net, 0, tg, false)
		buf := make([]byte, 64<<10)

		start := tk.Now()
		if err := cached.Write(tk, 0, buf); err != nil {
			t.Fatal(err)
		}
		cachedTime := tk.Now() - start

		start = tk.Now()
		if err := raw.Write(tk, 1<<20, buf); err != nil {
			t.Fatal(err)
		}
		rawTime := tk.Now() - start
		if cachedTime >= rawTime {
			t.Errorf("cached write (%v) not faster than write-through (%v)", cachedTime, rawTime)
		}
	})
}

func TestNVMeoFReadAheadHelpsSequential(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, nvme.DefaultConfig())
		tg := NewNVMeoFTarget(cl.K, cl.Net, 2, dev)
		ini := NewNVMeoFInitiator(cl.K, cl.Net, 0, tg, true)
		// First read misses and kicks off an asynchronous prefetch of
		// the following window (Linux-style read-ahead).
		if _, err := ini.Read(tk, 0, 4096); err != nil {
			t.Fatal(err)
		}
		tk.Sleep(us(2000)) // let the background prefetch land
		start := tk.Now()
		if _, err := ini.Read(tk, 4096, 4096); err != nil {
			t.Fatal(err)
		}
		seq := tk.Now() - start
		if seq > us(10) {
			t.Errorf("sequential cached read took %v, want local-cache speed", seq)
		}
	})
}

func TestDisaggregatedBaselineUnderFS(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, nvme.DefaultConfig())
		svc := fs.NewService(cl, 1, "fs-baseline")
		svc.WireBackend(NewDisaggregatedBackend(cl, 1, 2, dev))
		if err := svc.Start(tk); err != nil {
			t.Fatal(err)
		}
		client := proc.Attach(cl, 0, "client", 4<<20)
		open, _ := proc.GrantCap(svc.P, svc.Open, client)

		f, err := fs.OpenFile(tk, client, open, "base.bin", fs.OpenRead|fs.OpenWrite|fs.OpenCreate, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("dbase"), 2000)
		copy(client.Arena(), payload)
		src, _ := client.MemoryCreate(tk, 0, uint64(len(payload)), 0xf)
		if err := f.WriteAt(tk, 100, uint64(len(payload)), src); err != nil {
			t.Fatal(err)
		}
		dst, _ := client.MemoryCreate(tk, 1<<20, uint64(len(payload)), 0xf)
		if err := f.ReadAt(tk, 100, uint64(len(payload)), dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(client.Arena()[1<<20:(1<<20)+len(payload)], payload) {
			t.Fatal("disaggregated baseline corrupted data")
		}
		// DAX must be unavailable on this backend.
		if _, err := fs.OpenFile(tk, client, open, "base.bin", fs.OpenRead|fs.OpenDAX, 0); err == nil {
			t.Fatal("DAX open succeeded on NVMe-oF backend")
		}
	})
}

// TestDisaggregatedReadsTakeTheirViewLate: two concurrent FS-mode reads
// over NVMe-oF hold the FS's two lowest staging buffers, and the second
// one materializes its buffer — re-allocating the FS Process's memory —
// while the first is blocked on the fabric. Each read must take its view
// of the staging buffer after that, when its bytes have arrived: a view
// taken before the block would land them in storage the memory has
// left, and the client would read what the buffer last staged.
func TestDisaggregatedReadsTakeTheirViewLate(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, nvme.DefaultConfig())
		svc := fs.NewService(cl, 1, "fs-baseline")
		be := NewDisaggregatedBackend(cl, 1, 2, dev)
		svc.WireBackend(be)
		if err := svc.Start(tk); err != nil {
			t.Fatal(err)
		}
		client := proc.Attach(cl, 0, "client", 4<<20)
		open, _ := proc.GrantCap(svc.P, svc.Open, client)
		f, err := fs.OpenFile(tk, client, open, "late.bin", fs.OpenRead|fs.OpenWrite|fs.OpenCreate, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		const n, second = 8000, 64 << 10
		payloads := [][]byte{bytes.Repeat([]byte("first"), n/5), bytes.Repeat([]byte("other"), n/5)}
		for i, off := range []uint64{0, second} {
			copy(client.Arena(), payloads[i])
			src, _ := client.MemoryCreate(tk, 0, n, 0xf)
			if err := f.WriteAt(tk, off, n, src); err != nil {
				t.Fatal(err)
			}
		}
		be.Initiator().DropCaches()
		fsMem, _ := cl.Net.Lookup(svc.P.Endpoint())
		before := fsMem.ArenaBytes()

		var wg sim.WaitGroup
		wg.Add(2)
		for i, off := range []uint64{0, second} {
			at := uint64(i+1) << 20
			cl.K.Spawn("reader", func(rt *sim.Task) {
				defer wg.Done()
				dst, _ := client.MemoryCreate(rt, at, n, 0xf)
				if err := f.ReadAt(rt, off, n, dst); err != nil {
					t.Errorf("read at %d: %v", off, err)
				}
			})
		}
		wg.Wait(tk)
		if after := fsMem.ArenaBytes(); before > fs.ExtentSize || after <= fs.ExtentSize {
			t.Errorf("FS memory materialized %d bytes before the reads and %d after; want the second buffer to grow it past %d",
				before, after, fs.ExtentSize)
		}
		for i, want := range payloads {
			at := (i + 1) << 20
			if got := client.Arena()[at : at+n]; !bytes.Equal(got, want) {
				t.Errorf("read %d returned %.10q…, want %.10q…", i, got, want)
			}
		}
	})
}

func TestRCUDAEndToEnd(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := gpu.NewDevice(cl.K, gpu.DefaultConfig())
		dev.Register("double", func(mem []byte, args []uint64) uint64 {
			addr, n := args[0], args[1]
			for i := uint64(0); i < n; i++ {
				mem[addr+i] *= 2
			}
			return 0
		}, func(args []uint64) sim.Time { return us(50) })

		srv := NewRCUDAServer(cl.K, cl.Net, 1, dev)
		cli := NewRCUDAClient(cl.K, cl.Net, 0, srv)

		addr, err := cli.Malloc(tk, 256)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]byte, 256)
		for i := range in {
			in[i] = byte(i % 100)
		}
		if err := cli.MemcpyH2D(tk, addr, in); err != nil {
			t.Fatal(err)
		}
		if err := cli.Launch(tk, "double", addr, 256); err != nil {
			t.Fatal(err)
		}
		out, err := cli.MemcpyD2H(tk, addr, 256)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i] != byte(i%100)*2 {
				t.Fatalf("out[%d] = %d", i, out[i])
			}
		}
	})
}

func TestNFSOverNVMeoF(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, nvme.DefaultConfig())
		tg := NewNVMeoFTarget(cl.K, cl.Net, 2, dev)
		ini := NewNVMeoFInitiator(cl.K, cl.Net, 1, tg, true)
		srv := NewNFSServer(cl.K, cl.Net, 1, ini)
		cli := NewNFSClient(cl.K, cl.Net, 0, srv)

		if err := cli.Create(tk, "db/images.bin", 1<<20); err != nil {
			t.Fatal(err)
		}
		fd, size, err := cli.Open(tk, "db/images.bin")
		if err != nil || size != 1<<20 {
			t.Fatalf("open: fd=%d size=%d err=%v", fd, size, err)
		}
		payload := bytes.Repeat([]byte("nfsdata."), 512)
		if err := cli.Write(tk, fd, 8192, payload); err != nil {
			t.Fatal(err)
		}
		got, err := cli.Read(tk, fd, 8192, len(payload))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("nfs corrupted data")
		}
		if _, _, err := cli.Open(tk, "missing"); err == nil {
			t.Fatal("open of missing file succeeded")
		}
	})
}
