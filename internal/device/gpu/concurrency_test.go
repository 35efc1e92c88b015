package gpu

import (
	"testing"

	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// TestMultipleClientsShareAdaptor: several clients with their own
// contexts and buffers invoke kernels concurrently; every client's
// data stays isolated and all invocations complete (Figure 9's
// multi-client serving).
func TestMultipleClientsShareAdaptor(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := NewDevice(cl.K, DefaultMemSize)
		dev.Register("fill", func(mem []byte, args []uint64) uint64 {
			addr, n, v := args[0], args[1], args[2]
			for i := uint64(0); i < n; i++ {
				mem[addr+i] = byte(v)
			}
			return 0
		}, func([]uint64) sim.Time { return us(30) })
		ad := NewAdaptor(cl, 1, "gpu0", dev)
		if err := ad.Start(tk); err != nil {
			t.Fatal(err)
		}

		const clients = 4
		var wg sim.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			c := c
			client := proc.Attach(cl, c%3, "client", 4096)
			ci, err := proc.GrantCap(ad.P, ad.CtxInit, client)
			if err != nil {
				t.Fatal(err)
			}
			cl.K.Spawn("client-work", func(ct *sim.Task) {
				defer wg.Done()
				alloc, load, _, _ := initCtx(ct, t, client, ci)
				buf, addr := gpuAlloc(ct, t, client, alloc, 64)
				inv := loadKernel(ct, t, client, load, "fill")
				ao := ArgOffset(len("fill"), 0)
				for round := 0; round < 3; round++ {
					d, err := client.Call(ct, inv, []wire.ImmArg{
						proc.U64Arg(ao, addr), proc.U64Arg(ao+8, 64), proc.U64Arg(ao+16, uint64(c+1)),
					}, nil, SlotSuccess)
					if err != nil {
						t.Errorf("client %d round %d: %v", c, round, err)
						return
					}
					if st := d.U64(0); st != StatusOK {
						t.Errorf("client %d: kernel status %d", c, st)
						return
					}
				}
				// Download and verify this client's region.
				out, err := client.MemoryCreate(ct, 0, 64, 0xf)
				if err != nil {
					t.Error(err)
					return
				}
				if err := client.MemoryCopy(ct, buf, out); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 64; i++ {
					if client.Arena()[i] != byte(c+1) {
						t.Errorf("client %d: buffer polluted by another client", c)
						return
					}
				}
			})
		}
		wg.Wait(tk)
		if dev.Launches != clients*3 {
			t.Errorf("launches = %d, want %d", dev.Launches, clients*3)
		}
	})
}

// TestContextCleanupFreesAllBuffers: cleanup releases every buffer of
// the context so the space is reusable by others.
func TestContextCleanupFreesAllBuffers(t *testing.T) {
	runCluster(t, func(tk *sim.Task, cl *core.Cluster) {
		dev := NewDevice(cl.K, 4096) // tiny GPU memory
		dev.Register("nop", func([]byte, []uint64) uint64 { return 0 }, func([]uint64) sim.Time { return 0 })
		ad := NewAdaptor(cl, 1, "gpu0", dev)
		if err := ad.Start(tk); err != nil {
			t.Fatal(err)
		}
		client := proc.Attach(cl, 0, "client", 0)
		ci, _ := proc.GrantCap(ad.P, ad.CtxInit, client)
		alloc, _, _, cleanup := initCtx(tk, t, client, ci)
		// Exhaust GPU memory.
		gpuAlloc(tk, t, client, alloc, 2048)
		gpuAlloc(tk, t, client, alloc, 2048)
		d, err := client.Call(tk, alloc, []wire.ImmArg{proc.U64Arg(8, 1024)}, nil, SlotCont)
		if err != nil {
			t.Fatal(err)
		}
		if st := d.U64(0); st != StatusNoMem {
			t.Fatalf("over-alloc status = %d, want no-mem", st)
		}
		// Cleanup frees everything.
		if _, err := client.Call(tk, cleanup, nil, nil, SlotCont); err != nil {
			t.Fatal(err)
		}
		alloc2, _, _, _ := initCtx(tk, t, client, ci)
		gpuAlloc(tk, t, client, alloc2, 4096) // the whole GPU again
	})
}
