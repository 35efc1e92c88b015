package core_test

// Chaos soak: a mixed RPC + memory-copy workload runs across three
// nodes while Processes are killed and a Controller crashes and
// reboots underneath it. The system must stay live (operations
// complete or fail with errors — never hang), redeployment must
// succeed, and the whole run must be deterministic.

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

// chaosService is a restartable echo service.
type chaosService struct {
	p   *proc.Process
	req proc.Cap
}

func deployChaosService(tk *sim.Task, cl *core.Cluster, node int, gen int) *chaosService {
	s := &chaosService{p: proc.Attach(cl, node, fmt.Sprintf("svc-g%d", gen), 4096)}
	var err error
	s.req, err = s.p.RequestCreate(tk, 1, nil, nil)
	if err != nil {
		panic(err)
	}
	cl.K.Spawn("svc-loop", func(st *sim.Task) {
		for {
			d, ok := s.p.Receive(st)
			if !ok {
				return
			}
			if rep, ok := d.Cap(0); ok {
				s.p.Invoke(st, rep, []wire.ImmArg{proc.BytesArg(0, d.Imms)}, nil)
			}
			d.Done()
		}
	})
	return s
}

func TestChaosSoak(t *testing.T) {
	run(t, testbed.Spec{Nodes: 3}, func(tk *sim.Task, cl *core.Cluster) {
		client := proc.Attach(cl, 0, "chaos-client", 8192)
		svc := deployChaosService(tk, cl, 1, 0)
		sreq, err := proc.GrantCap(svc.p, svc.req, client)
		if err != nil {
			t.Fatal(err)
		}

		okCalls, failCalls := 0, 0
		call := func(payload string) bool {
			// Bounded call: WaitTag with a virtual-time timeout so a
			// dead service cannot hang the workload.
			reply, tag, err := client.ReplyRequest(tk)
			if err != nil {
				return false
			}
			f := client.WaitTag(tag)
			if err := client.Invoke(tk, sreq,
				[]wire.ImmArg{proc.BytesArg(0, []byte(payload))},
				[]proc.Arg{{Slot: 0, Cap: reply}}); err != nil {
				client.Drop(tk, reply)
				return false
			}
			d, err := f.WaitTimeout(tk, 5*1000*1000) // 5ms virtual
			client.Drop(tk, reply)
			if err != nil {
				return false
			}
			d.Done()
			if string(d.Imms) != payload {
				t.Fatalf("echo corrupted: %q != %q", d.Imms, payload)
			}
			return true
		}

		gen := 0
		for round := 0; round < 60; round++ {
			if call(fmt.Sprintf("round-%d", round)) {
				okCalls++
			} else {
				failCalls++
			}

			switch round {
			case 15:
				// Kill the service Process.
				cl.CtrlFor(1).FailProcess(svc.p.ID())
			case 25:
				// Redeploy it (new generation, new capability).
				gen++
				svc = deployChaosService(tk, cl, 1, gen)
				if sreq, err = proc.GrantCap(svc.p, svc.req, client); err != nil {
					t.Fatal(err)
				}
			case 35:
				// Crash and reboot the service node's Controller.
				cl.CtrlFor(1).Crash()
				cl.CtrlFor(1).Reboot()
			case 45:
				// Redeploy after the reboot.
				gen++
				svc = deployChaosService(tk, cl, 1, gen)
				if sreq, err = proc.GrantCap(svc.p, svc.req, client); err != nil {
					t.Fatal(err)
				}
			}
			tk.Sleep(100 * 1000)
		}

		// Liveness: calls succeed outside the two outage windows
		// (15..25 and 35..45 ⇒ at most 22 failing rounds).
		if okCalls < 36 {
			t.Errorf("only %d/60 calls succeeded (failures: %d)", okCalls, failCalls)
		}
		if failCalls == 0 {
			t.Error("no calls failed across two injected outages — injection broken?")
		}
		// The final generation works.
		if !call("final") {
			t.Error("service unusable after recovery")
		}
	})
}

// TestChaosSoakDeterministic: the chaos run is reproducible.
func TestChaosSoakDeterministic(t *testing.T) {
	trace := func() string {
		var out string
		run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			svcP := proc.Attach(cl, 1, "svc", 0)
			req, _ := svcP.RequestCreate(tk, 1, nil, nil)
			client := proc.Attach(cl, 0, "cli", 0)
			creq, _ := proc.GrantCap(svcP, req, client)
			cl.K.Spawn("svc", func(st *sim.Task) {
				for {
					d, ok := svcP.Receive(st)
					if !ok {
						return
					}
					if rep, okc := d.Cap(0); okc {
						svcP.Invoke(st, rep, nil, nil)
					}
					d.Done()
				}
			})
			for i := 0; i < 5; i++ {
				if i == 2 {
					cl.CtrlFor(1).Crash()
					cl.CtrlFor(1).Reboot()
				}
				reply, tag, _ := client.ReplyRequest(tk)
				f := client.WaitTag(tag)
				err := client.Invoke(tk, creq, nil, []proc.Arg{{Slot: 0, Cap: reply}})
				if err == nil {
					if d, werr := f.WaitTimeout(tk, 2*1000*1000); werr == nil {
						d.Done()
					} else {
						err = werr
					}
				}
				client.Drop(tk, reply)
				out += fmt.Sprintf("%d:%v@%v;", i, err == nil, tk.Now())
			}
		})
		return out
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("chaos traces differ:\n%s\n%s", a, b)
	}
	_ = cap.NilCap
}
