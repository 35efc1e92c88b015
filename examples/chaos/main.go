// Chaos: the whole robustness stack of docs/FAULTS.md on one cluster.
//
// The fabric drops and duplicates frames the entire time; on top of it
// the demo walks through two phases:
//
//  1. steady state — every client call succeeds untouched because the
//     Controllers' retransmission protocol re-sends lost frames and the
//     at-most-once dedup cache absorbs the duplicates;
//  2. outage — the service node is partitioned away. The heartbeat
//     failure detector (monitoring from node 0, the majority side)
//     suspects, fences, and reboots the unreachable Controller; the
//     fabric heals on a schedule; the monitor observes the recovery and
//     redeploys the service under the new epoch. Throughout, the client
//     keeps issuing requests under a proc.Retry policy with a circuit
//     breaker: failures stay bounded (never a hang), the breaker fails
//     fast mid-outage, and service resumes without the client ever
//     being restarted.
//
// Every drop, probe, fence, reboot, and retry lands at the same virtual
// instant on every run — the demo is deterministic.
//
// Run with: go run ./examples/chaos
package main

import (
	"errors"
	"fmt"
	"log"

	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

const ms = sim.Time(1000 * 1000)

// rig is one generation of the echo service (node 1) plus the client's
// capability to it. The client Process itself survives redeployments —
// only the service side is rebuilt after a Controller reboot.
type rig struct {
	svcP *proc.Process
	creq proc.Cap
}

func deploy(tk *sim.Task, d *testbed.Deployment, client *proc.Process, gen int) *rig {
	r := &rig{}
	r.svcP = d.Attach(1, fmt.Sprintf("echo-g%d", gen), 4096)
	svcReq, err := r.svcP.RequestCreate(tk, 1, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	r.svcP.Serve("echo-loop", 1, func(_ *sim.Task, del *proc.Delivery) {
		// A failed reply surfaces as the client's timeout.
		del.Reply(0, []wire.ImmArg{proc.BytesArg(0, del.Imms)}, nil)
	})
	if r.creq, err = proc.GrantCap(r.svcP, svcReq, client); err != nil {
		log.Fatal(err)
	}
	return r
}

// call is a bounded echo round trip: it can fail (lost to the outage,
// aborted by an epoch bump, timed out) but can never hang past the
// deadline, counted from the invocation's post — an attempt issued into
// a partition returns to the retry policy promptly instead of blocking
// inside the Controllers' retransmission window.
//
//fractos:ordered
func call(tk *sim.Task, client *proc.Process, r *rig, payload string, deadline sim.Time) error {
	del, err := client.CallTimeout(tk, r.creq,
		[]wire.ImmArg{proc.BytesArg(0, []byte(payload))}, nil, 0, deadline)
	if err != nil {
		return err
	}
	if string(del.Imms) != payload {
		return fmt.Errorf("echo corrupted: %q != %q", del.Imms, payload)
	}
	return nil
}

func main() {
	// Shared with the heartbeat monitor's subscriber below; the
	// simulation is single-threaded, so plain variables are safe.
	var (
		client *proc.Process
		cur    *rig
	)

	spec := testbed.Spec{
		Nodes: 3,
		Chaos: fabric.Faults{Drop: 0.05, Dup: 0.02, Seed: 7},
		// The monitor attaches on node 0: the majority side of the
		// partition.
		Heartbeat: &services.WatchConfig{Every: 3 * ms, Suspect: 3, RebootAfter: 6 * ms},
	}
	testbed.Run(spec, func(t *sim.Task, d *testbed.Deployment) {
		d.Watch.Subscribe(func(e services.WatchEvent) {
			fmt.Printf("  watch @%sms: %s ctrl=%d", testbed.Ms(e.At), e.Kind, e.Ctrl)
			if e.Kind == services.WatchRecovered {
				fmt.Printf(" epoch=%d", e.Epoch)
			}
			fmt.Println()
			if e.Kind == services.WatchRecovered {
				// The fenced Controller is back under a fresh epoch:
				// everything minted before the fence is stale, so stand
				// up a new service generation and swap the client over.
				d.Spawn("redeploy", func(st *sim.Task) {
					cur = deploy(st, d, client, 1)
					fmt.Printf("  service redeployed under epoch %d @%sms\n",
						e.Epoch, testbed.Ms(st.Now()))
				})
			}
		})
		client = d.Attach(0, "client", 8192)
		cur = deploy(t, d, client, 0)

		// --- phase 1: loss masked below the application ---
		fmt.Println("phase 1: 30 calls over a fabric dropping 5% and duplicating 2% of frames")
		for i := 0; i < 30; i++ {
			if err := call(t, client, cur, fmt.Sprintf("c-%d", i), 500*ms); err != nil {
				log.Fatalf("call %d failed under loss: %v", i, err)
			}
			t.Sleep(ms / 2)
		}
		fs := d.Net().FaultStats()
		m0, m1 := d.Cl.CtrlFor(0).Metrics(), d.Cl.CtrlFor(1).Metrics()
		fmt.Printf("  all 30 served: %d frames dropped, %d duplicated — "+
			"%d retransmits, %d dedup hits, 0 application errors\n",
			fs.Dropped, fs.Duplicated,
			m0.Retransmits+m1.Retransmits, m0.DedupHits+m1.DedupHits)

		// --- phase 2: partition + fence + reboot + heal + redeploy ---
		fmt.Println("\nphase 2: partitioning the service node (heals in 40ms); client keeps calling")
		d.Net().PartitionNodes([]int{1})
		d.K().After(40*ms, func() {
			d.Net().HealPartitions()
			fmt.Printf("  fabric healed @%sms\n", testbed.Ms(d.K().Now()))
		})

		br := &proc.Breaker{Threshold: 4, Cooldown: 6 * ms}
		pol := proc.Retry{
			Max: 2, Base: ms, Cap: 4 * ms, Jitter: 0.5, Seed: 11,
			Breaker: br,
			// The op re-reads cur, so even "permanent" errors (a stale
			// capability after the epoch bump) heal once the monitor
			// redeploys — retry everything and let the breaker meter it.
			Classify: func(err error) bool { return err != nil },
		}
		var served, failed, fastFail int
		lastState := "closed"
		streak := 0
		for i := 0; streak < 3; i++ {
			if i >= 200 {
				log.Fatal("client never recovered after the outage")
			}
			err := pol.Do(t, func(st *sim.Task) error {
				return call(st, client, cur, fmt.Sprintf("r-%d", i), 6*ms)
			})
			switch {
			case err == nil:
				served++
				streak++
			case errors.Is(err, proc.ErrCircuitOpen):
				fastFail++
				streak = 0
			default:
				failed++
				streak = 0
			}
			if s := br.State(t.Now()); s != lastState {
				fmt.Printf("  breaker -> %s @%sms\n", s, testbed.Ms(t.Now()))
				lastState = s
			}
			t.Sleep(2 * ms)
		}
		if ep := d.Cl.CtrlFor(1).Epoch(); ep != 2 {
			log.Fatalf("service Controller epoch = %d after the outage, want 2", ep)
		}
		fmt.Printf("  outage ridden out: %d served, %d failed after retries, "+
			"%d failed fast while the breaker was open\n", served, failed, fastFail)

		m0, m1 = d.Cl.CtrlFor(0).Metrics(), d.Cl.CtrlFor(1).Metrics()
		fs = d.Net().FaultStats()
		fmt.Printf("\ntotals: dropped=%d duplicated=%d cut=%d | retransmits=%d dedup=%d aborted=%d\n",
			fs.Dropped, fs.Duplicated, fs.Cut,
			m0.Retransmits+m1.Retransmits, m0.DedupHits+m1.DedupHits,
			m0.RPCAborted+m1.RPCAborted)
		fmt.Println("client survived the outage without restarting: retry + breaker above, " +
			"retransmit + dedup below, heartbeat fence/reboot on the side")
	})
}
