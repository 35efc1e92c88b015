package baseline

import (
	"bytes"
	"math"
	"testing"

	"fractos/internal/core"
	"fractos/internal/device/gpu"
	"fractos/internal/device/nvme"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

func TestRCUDAMallocExhaustion(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := gpu.NewDevice(cl.K, 4096)
		srv := NewRCUDAServer(cl.Net, 1, dev)
		cli := NewRCUDAClient(cl.Net, 0, srv)
		if _, err := cli.Malloc(tk, 4096); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Malloc(tk, 1); err == nil {
			t.Fatal("over-allocation succeeded")
		}
	})
}

func TestRCUDAMemcpyBounds(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := gpu.NewDevice(cl.K, 4096)
		srv := NewRCUDAServer(cl.Net, 1, dev)
		cli := NewRCUDAClient(cl.Net, 0, srv)
		addr, _ := cli.Malloc(tk, 1024)
		if err := cli.MemcpyH2D(tk, addr, make([]byte, 8192)); err == nil {
			t.Fatal("out-of-bounds H2D succeeded")
		}
		if _, err := cli.MemcpyD2H(tk, addr, 8192); err == nil {
			t.Fatal("out-of-bounds D2H succeeded")
		}
	})
}

func TestRCUDAUnknownKernel(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := gpu.NewDevice(cl.K, gpu.DefaultMemSize)
		srv := NewRCUDAServer(cl.Net, 1, dev)
		cli := NewRCUDAClient(cl.Net, 0, srv)
		if err := cli.Launch(tk, "ghost"); err == nil {
			t.Fatal("launch of unknown kernel succeeded")
		}
	})
}

func TestNFSErrorPaths(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, nvme.DefaultCapacity)
		tg := NewNVMeoFTarget(cl.Net, 2, dev)
		ini := uncachedInitiator(cl.Net, 1, tg)
		srv := NewNFSServer(cl.Net, 1, ini)
		cli := NewNFSClient(cl.Net, 0, srv)

		if err := cli.Create(tk, "f", 4096); err != nil {
			t.Fatal(err)
		}
		if err := cli.Create(tk, "f", 4096); err == nil {
			t.Fatal("duplicate create succeeded")
		}
		fd, _, err := cli.Open(tk, "f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Read(tk, fd, 4000, 1000); err == nil {
			t.Fatal("read past EOF succeeded")
		}
		if err := cli.Write(tk, fd, 4000, make([]byte, 1000)); err == nil {
			t.Fatal("write past EOF succeeded")
		}
		if _, err := cli.Read(tk, 999, 0, 16); err == nil {
			t.Fatal("read on bogus fd succeeded")
		}
	})
}

func TestNVMeoFAllocExhaustion(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, 1<<20)
		tg := NewNVMeoFTarget(cl.Net, 2, dev)
		ini := uncachedInitiator(cl.Net, 0, tg)
		if _, err := alloc(tk, ini, 1<<20); err != nil {
			t.Fatal(err)
		}
		if _, err := alloc(tk, ini, 1); err == nil {
			t.Fatal("over-allocation succeeded")
		}
	})
}

// TestPeerCallToDeadEndpoint: baseline RPCs to a severed endpoint fail
// immediately instead of hanging.
func TestPeerCallToDeadEndpoint(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := nvme.NewDevice(cl.K, nvme.DefaultCapacity)
		tg := NewNVMeoFTarget(cl.Net, 2, dev)
		ini := uncachedInitiator(cl.Net, 0, tg)
		cl.Net.Disconnect(tg.Endpoint())
		if _, err := alloc(tk, ini, 4096); err == nil {
			t.Fatal("call to severed target succeeded")
		}
	})
}

// TestBlockCacheFIFOEviction: the block cache evicts
// oldest-insertion-first — a pure function of the fill sequence, never
// of Go's randomized map iteration order (which would leak
// run-to-run nondeterminism into every Disaggregated-Baseline
// experiment; the Figure 11 random-read cell used to flap because of
// exactly that).
func TestBlockCacheFIFOEviction(t *testing.T) {
	c := newBlockCache(2 * cachePage) // room for two pages
	page := func(i int64) int64 { return i * cachePage }
	buf := make([]byte, cachePage)
	c.fill(page(0), buf)
	c.fill(page(1), buf)
	c.fill(page(2), buf) // evicts page 0 (oldest), never page 1
	if _, ok := c.pages[0]; ok {
		t.Error("page 0 not evicted")
	}
	if _, ok := c.pages[1]; !ok {
		t.Error("page 1 (younger) evicted instead of page 0")
	}
	if _, ok := c.pages[2]; !ok {
		t.Error("freshly filled page 2 missing")
	}
	c.fill(page(3), buf) // evicts page 1
	if _, ok := c.pages[1]; ok {
		t.Error("page 1 not evicted on second overflow")
	}
	if c.used != 2*cachePage {
		t.Errorf("used = %d, want %d", c.used, 2*cachePage)
	}
	// Refilling a resident page must not duplicate it in the FIFO.
	c.fill(page(3), buf)
	if len(c.fifo) != 2 {
		t.Errorf("fifo length = %d after refill, want 2", len(c.fifo))
	}
}

// TestBaselineServersRejectHostileArgs sends every baseline server the
// lengths and offsets a broken or hostile client could put on the wire,
// through a raw Peer. Each request is answered — an argument that does
// not fit with an error status — and none takes the simulation down.
func TestBaselineServersRejectHostileArgs(t *testing.T) {
	const size = 4096
	inside := func(off, n, size int64) bool { return off >= 0 && n >= 0 && off <= size-n }
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		tg := NewNVMeoFTarget(cl.Net, 2, nvme.NewDevice(cl.K, 2*size))
		nfs := NewNFSServer(cl.Net, 1, uncachedInitiator(cl.Net, 1, tg))
		gpuSrv := NewRCUDAServer(cl.Net, 1, gpu.NewDevice(cl.K, size))
		nfsCli := NewNFSClient(cl.Net, 0, nfs)
		if err := nfsCli.Create(tk, "f", size); err != nil { // the first half of the target
			t.Error(err)
			return
		}
		fd, _, err := nfsCli.Open(tk, "f")
		if err != nil {
			t.Error(err)
			return
		}
		raw := NewPeer(cl.Net, "hostile", fabric.Location{Node: 0, Domain: fabric.Host}, 0, nil)
		// Past the first bytes, a size near 2⁶³ makes free+size wrap.
		if r, err := raw.Call(tk, gpuSrv.Endpoint(), rcudaMalloc, header([]uint64{16}, nil), false); err != nil || getU64(r, 0) != 0 {
			t.Errorf("rcuda malloc 16: %v", err)
			return
		}
		name, block := []byte("f"), make([]byte, 8)
		cases := []struct {
			what string
			to   fabric.EndpointID
			kind uint32
			req  func(v uint64) []byte
			ok   func(v int64) bool
		}{
			{"rcuda launch nameLen", gpuSrv.Endpoint(), rcudaLaunch,
				func(v uint64) []byte { return header([]uint64{v}, name) }, func(int64) bool { return false }},
			{"rcuda malloc size", gpuSrv.Endpoint(), rcudaMalloc,
				func(v uint64) []byte { return header([]uint64{v}, nil) }, func(v int64) bool { return v > 0 && v <= size-16 }},
			{"rcuda H2D addr", gpuSrv.Endpoint(), rcudaMemcpyH2D,
				func(v uint64) []byte { return header([]uint64{v}, block) }, func(v int64) bool { return inside(v, 8, size) }},
			{"rcuda D2H addr", gpuSrv.Endpoint(), rcudaMemcpyD2H,
				func(v uint64) []byte { return header([]uint64{v, 8}, nil) }, func(v int64) bool { return inside(v, 8, size) }},
			{"rcuda D2H n", gpuSrv.Endpoint(), rcudaMemcpyD2H,
				func(v uint64) []byte { return header([]uint64{0, v}, nil) }, func(v int64) bool { return inside(0, v, size) }},
			// A zero-size file fails its allocation, so every create fails.
			{"nfs create nameLen", nfs.Endpoint(), nfsCreate,
				func(v uint64) []byte { return header([]uint64{v, 0}, name) }, func(int64) bool { return false }},
			// No file is called "" or "x".
			{"nfs open nameLen", nfs.Endpoint(), nfsOpen,
				func(v uint64) []byte { return header([]uint64{v}, []byte("x")) }, func(int64) bool { return false }},
			{"nfs read off", nfs.Endpoint(), nfsRead,
				func(v uint64) []byte { return header([]uint64{fd, v, 8}, nil) }, func(v int64) bool { return inside(v, 8, size) }},
			{"nfs read n", nfs.Endpoint(), nfsRead,
				func(v uint64) []byte { return header([]uint64{fd, 0, v}, nil) }, func(v int64) bool { return inside(0, v, size) }},
			{"nfs write off", nfs.Endpoint(), nfsWrite,
				func(v uint64) []byte { return header([]uint64{fd, v}, block) }, func(v int64) bool { return inside(v, 8, size) }},
			{"nvmeof read off", tg.Endpoint(), nvmeofRead,
				func(v uint64) []byte { return header([]uint64{v, 8}, nil) }, func(v int64) bool { return inside(v, 8, 2*size) }},
			{"nvmeof read n", tg.Endpoint(), nvmeofRead,
				func(v uint64) []byte { return header([]uint64{0, v}, nil) }, func(v int64) bool { return inside(0, v, 2*size) }},
			// The second half of the target is free: size-1 bytes fit
			// once, and then size+1 cannot.
			{"nvmeof alloc size", tg.Endpoint(), nvmeofAlloc,
				func(v uint64) []byte { return header([]uint64{v}, nil) }, func(v int64) bool { return v > 0 && v <= size }},
		}
		for _, c := range cases {
			for _, v := range []int64{-1, 0, 1<<63 - 8, math.MaxInt64 - 10, size - 1, size + 1} {
				r, err := raw.Call(tk, c.to, c.kind, c.req(uint64(v)), false)
				if err != nil {
					t.Errorf("%s = %d: %v", c.what, v, err)
					continue
				}
				if got, want := getU64(r, 0) == 0, c.ok(v); got != want {
					t.Errorf("%s = %d: succeeded %v, want %v", c.what, v, got, want)
				}
			}
		}
		// A frame shorter than its own header is answered too.
		for _, c := range cases {
			if _, err := raw.Call(tk, c.to, c.kind, make([]byte, 4), false); err != nil {
				t.Errorf("%s, 4-byte frame: %v", c.what, err)
			}
		}
		// The target allocates a read's buffer before the device checks
		// its range: on a 16 GiB device, only the largest I/O bounds it.
		big := NewNVMeoFTarget(cl.Net, 2, nvme.NewDevice(cl.K, nvme.DefaultCapacity))
		for _, n := range []uint64{nvme.MaxIO, nvme.MaxIO + 1} {
			r, err := raw.Call(tk, big.Endpoint(), nvmeofRead, header([]uint64{0, n}, nil), false)
			if got, want := err == nil && len(r) >= 8 && getU64(r, 0) == 0, n <= nvme.MaxIO; got != want {
				t.Errorf("nvmeof read of %d bytes on a default device: succeeded %v, want %v", n, got, want)
			}
		}
	})
}

// TestBaselineClientsCheckReplies: a client takes a reply only from the
// endpoint its call went to, and a reply shorter than its header fails
// the call. Tokens are small counters, so a third endpoint can answer
// first with the right one; and a status read past a short reply's end
// used to read OK, after which each client sliced the payload out of
// range.
func TestBaselineClientsCheckReplies(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		payload := []byte("payload!")
		short := false
		forger := NewPeer(cl.Net, "forger", fabric.Location{Node: 2, Domain: fabric.Host}, 0, nil)
		var srv *Peer
		srv = NewPeer(cl.Net, "server", fabric.Location{Node: 1, Domain: fabric.Host}, 0, func(req Request) error {
			if short {
				srv.Reply(make([]byte, 4), false)
				return nil
			}
			forged := &wire.Raw{Kind: req.Kind | replyBit, Token: req.Token, Data: make([]byte, 4)}
			if !cl.Net.Send(forger.EP.ID, req.From, forged) {
				t.Error("forged reply not sent")
			}
			cl.K.After(us(10), func() { srv.Reply(header([]uint64{0}, payload), true) })
			return nil
		})
		at := fabric.Location{Node: 0, Domain: fabric.Host}
		nfsCli := &NFSClient{client{peer: NewPeer(cl.Net, "nfs", at, 0, nil), server: srv.EP.ID, proto: "nfs"}}
		gpuCli := &RCUDAClient{client{peer: NewPeer(cl.Net, "rcuda", at, 0, nil), server: srv.EP.ID, proto: "rcuda"}}
		ini := &NVMeoFInitiator{client: client{peer: NewPeer(cl.Net, "ini", at, 0, nil), server: srv.EP.ID, proto: "nvmeof"}, k: cl.K}
		reads := []struct {
			what string
			read func() ([]byte, error)
		}{
			{"nfs read", func() ([]byte, error) { return nfsCli.Read(tk, 1, 0, len(payload)) }},
			{"rcuda D2H", func() ([]byte, error) { return gpuCli.MemcpyD2H(tk, 0, len(payload)) }},
			{"nvmeof read", func() ([]byte, error) { return read(tk, ini, 0, len(payload)) }},
		}
		for _, short = range []bool{false, true} {
			for _, r := range reads {
				got, err := r.read()
				switch {
				case short && err == nil:
					t.Errorf("%s: a 4-byte reply succeeded with %q", r.what, got)
				case !short && (err != nil || !bytes.Equal(got, payload)):
					t.Errorf("%s after a forged reply: %q, %v; want the server's %q", r.what, got, err, payload)
				}
			}
		}
	})
}
