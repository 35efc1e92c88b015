// Failover: the fault-tolerance model of §3.6 — failures are
// translated into capability revocations, observed through the
// monitor_delegate / monitor_receive callbacks.
//
// The demo deploys a service and two clients, then injects failures:
//
//  1. a client dies — the service's monitor_delegate callback fires
//     because the client's leased capability is revoked, so the
//     service can free the resources it held for that client;
//  2. the service's node Controller crashes and reboots — its epoch
//     advances, every capability minted before the crash is stale, and
//     the surviving client's requests fail fast instead of hanging;
//  3. the service re-registers after the reboot and the client
//     re-bootstraps — normal operation resumes.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"fractos/internal/cap"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

const tagWork = 7

func main() {
	testbed.Run(testbed.Spec{Nodes: 3, Watch: true}, func(t *sim.Task, tb *testbed.Deployment) {
		watch := tb.Watch
		// A "GPU-like" service on node 1: it creates one monitored
		// Request per client so it learns when clients disappear.
		svc := tb.Attach(1, "service", 0)
		// Work happens in the handler in a real service.
		svc.Serve("service-loop", 1, func(*sim.Task, *proc.Delivery) {})

		newClientLease := func(t *sim.Task, svc *proc.Process, name string, client *proc.Process) proc.Cap {
			perClient, err := svc.RequestCreate(t, tagWork, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			if err := svc.MonitorDelegate(t, perClient, func() {
				fmt.Printf("  service: client %q is gone — freeing its resources\n", name)
			}); err != nil {
				log.Fatal(err)
			}
			// Delegate through an invocation (the monitored path): the
			// client hands the service a carrier Request first.
			carrier, err := client.RequestCreate(t, 99, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			carrierSvc, err := proc.GrantCap(client, carrier, svc)
			if err != nil {
				log.Fatal(err)
			}
			if err := svc.Invoke(t, carrierSvc, nil, []proc.Arg{{Slot: 0, Cap: perClient}}); err != nil {
				log.Fatal(err)
			}
			d, _ := client.Receive(t)
			lease, ok := d.Cap(0)
			d.Done()
			if !ok {
				log.Fatal("no lease delivered")
			}
			return lease
		}

		alice := tb.Attach(0, "alice", 0)
		bob := tb.Attach(2, "bob", 0)
		aliceLease := newClientLease(t, svc, "alice", alice)
		bobLease := newClientLease(t, svc, "bob", bob)

		// Bob watches his lease so he learns about service failures.
		if err := bob.MonitorReceive(t, bobLease, func() {
			fmt.Println("  bob: my service capability was revoked — the service failed")
		}); err != nil {
			log.Fatal(err)
		}

		if err := alice.Invoke(t, aliceLease, nil, nil); err != nil {
			log.Fatal(err)
		}
		if err := bob.Invoke(t, bobLease, nil, nil); err != nil {
			log.Fatal(err)
		}
		fmt.Println("both clients served normally")

		// --- failure 1: alice's process dies ---
		fmt.Println("\ninjecting: alice crashes")
		watch.NodeFailed(0, []cap.ProcID{alice.ID()})
		t.Sleep(200_000)

		// Bob is unaffected.
		if err := bob.Invoke(t, bobLease, nil, nil); err != nil {
			log.Fatalf("bob affected by alice's failure: %v", err)
		}
		fmt.Println("bob still served after alice's failure")

		// --- failure 2: the service's Controller crashes ---
		fmt.Println("\ninjecting: controller on the service node crashes and reboots")
		watch.ControllerFailed(1)
		watch.ControllerRecovered(1)
		t.Sleep(200_000)
		if err := bob.Invoke(t, bobLease, nil, nil); err != nil {
			fmt.Printf("  bob: stale-epoch capability rejected fast: %v\n", err)
		} else {
			log.Fatal("stale capability still worked")
		}

		// --- recovery: redeploy the service under the new epoch ---
		svc2 := tb.Attach(1, "service-v2", 0)
		svc2.Serve("service-v2-loop", 1, func(*sim.Task, *proc.Delivery) {})
		lease2 := newClientLease(t, svc2, "bob", bob)
		if err := bob.Invoke(t, lease2, nil, nil); err != nil {
			log.Fatalf("post-recovery invoke failed: %v", err)
		}
		fmt.Println("\nservice redeployed, bob re-bootstrapped: back to normal")
	})
}
