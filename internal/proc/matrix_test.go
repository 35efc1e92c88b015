package proc_test

// Cross-placement matrix: the same canonical workload — bootstrap,
// echo RPC, cross-process memory copy, revocation — must behave
// identically under every Controller deployment and cluster size the
// paper evaluates. Only timing may differ.

import (
	"fmt"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

func TestCrossPlacementMatrix(t *testing.T) {
	placements := []core.Placement{core.CtrlOnCPU, core.CtrlOnSNIC, core.CtrlShared}
	for _, p := range placements {
		for _, nodes := range []int{1, 2, 4} {
			p, nodes := p, nodes
			t.Run(fmt.Sprintf("%v-%dnodes", p, nodes), func(t *testing.T) {
				run(t, testbed.Spec{Nodes: nodes, Placement: p}, func(tk *sim.Task, cl *core.Cluster) {
					canonicalWorkload(tk, t, cl, nodes)
				})
			})
		}
	}
}

func canonicalWorkload(tk *sim.Task, t *testing.T, cl *core.Cluster, nodes int) {
	srvNode := (nodes - 1) % nodes
	srv := proc.Attach(cl, srvNode, "m-srv", 4096)
	cli := proc.Attach(cl, 0, "m-cli", 4096)

	// Echo service.
	req, err := srv.RequestCreate(tk, 1, nil, nil)
	if err != nil {
		t.Fatalf("request create: %v", err)
	}
	creq, err := proc.GrantCap(srv, req, cli)
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	cl.K.Spawn("m-srv-loop", func(st *sim.Task) {
		for {
			d, ok := srv.Receive(st)
			if !ok {
				return
			}
			if rep, ok := d.Cap(0); ok {
				srv.Invoke(st, rep, []wire.ImmArg{proc.BytesArg(0, d.Imms)}, nil)
			}
			d.Done()
		}
	})

	// RPC.
	d, err := cli.Call(tk, creq, []wire.ImmArg{proc.BytesArg(0, []byte("matrix"))}, nil, 0)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if string(d.Imms) != "matrix" {
		t.Fatalf("echo = %q", d.Imms)
	}

	// Cross-process copy.
	copy(cli.Arena(), "payload!")
	src, err := cli.MemoryCreate(tk, 0, 8, cap.MemRights)
	if err != nil {
		t.Fatal(err)
	}
	dstS, err := srv.MemoryCreate(tk, 64, 8, cap.MemRights)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := proc.GrantCap(srv, dstS, cli)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.MemoryCopy(tk, src, dst); err != nil {
		t.Fatalf("copy: %v", err)
	}
	if string(srv.Arena()[64:72]) != "payload!" {
		t.Fatalf("copy landed %q", srv.Arena()[64:72])
	}

	// Revocation is immediate under every deployment.
	if err := srv.Revoke(tk, dstS); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if err := cli.MemoryCopy(tk, src, dst); err == nil {
		t.Fatal("copy through revoked capability succeeded")
	}

	// Diminished views keep working.
	view, err := cli.MemoryDiminish(tk, src, 2, 4, cap.Write)
	if err != nil {
		t.Fatal(err)
	}
	if view.Size() != 4 {
		t.Fatalf("view size %d", view.Size())
	}
}
