// Quickstart: the smallest complete FractOS program.
//
// It deploys a two-node cluster (one Controller per node), starts a
// tiny "shout" service on node 1, and runs a client on node 0 that:
//
//  1. registers Memory objects and copies data across the network
//     (memory_copy — a third-party transfer through the Controller),
//  2. performs a synchronous RPC through Request objects — the
//     continuation-passing A→B→A' pattern of §3.4,
//  3. revokes a capability and shows that it is dead immediately.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"fractos/internal/cap"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

const (
	tagShout  = 1
	slotReply = 0
)

func main() {
	testbed.Run(testbed.Spec{Nodes: 2}, func(t *sim.Task, tb *testbed.Deployment) {
		// --- deploy the service on node 1 ---
		svc := tb.Attach(1, "shout-svc", 4096)
		shout, err := svc.RequestCreate(t, tagShout, nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		svc.Serve("shout-loop", 1, func(_ *sim.Task, d *proc.Delivery) {
			loud := append([]byte(nil), d.Imms...)
			for i, c := range loud {
				if 'a' <= c && c <= 'z' {
					loud[i] = c - 32
				}
			}
			d.Reply(slotReply, []wire.ImmArg{proc.BytesArg(0, loud)}, nil)
		})

		// --- client on node 0 ---
		app := tb.Attach(0, "app", 4096)

		// 1. Memory objects: copy bytes into the service's arena.
		copy(app.Arena(), "hello, disaggregation")
		src, err := app.MemoryCreate(t, 0, 21, cap.MemRights)
		if err != nil {
			log.Fatal(err)
		}
		svcBuf, err := svc.MemoryCreate(t, 100, 21, cap.MemRights)
		if err != nil {
			log.Fatal(err)
		}
		// Hand the service's buffer capability to the app (bootstrap
		// grant; in a full deployment this flows through the registry).
		dst, err := proc.GrantCap(svc, svcBuf, app)
		if err != nil {
			log.Fatal(err)
		}
		start := t.Now()
		if err := app.MemoryCopy(t, src, dst); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("memory_copy: %q landed in the service arena in %v (cross-node)\n",
			string(svc.Arena()[100:121]), t.Now()-start)

		// 2. Request invocation: a synchronous RPC via continuations.
		shoutCap, err := proc.GrantCap(svc, shout, app)
		if err != nil {
			log.Fatal(err)
		}
		start = t.Now()
		d, err := app.Call(t, shoutCap,
			[]wire.ImmArg{proc.BytesArg(0, []byte("whisper"))}, nil, slotReply)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("request_invoke: shout(%q) = %q in %v\n", "whisper", d.Imms, t.Now()-start)

		// 3. Revocation is immediate: one message to the owner kills
		// every capability referencing the object.
		if err := svc.Revoke(t, svcBuf); err != nil {
			log.Fatal(err)
		}
		if err := app.MemoryCopy(t, src, dst); err != nil {
			fmt.Printf("cap_revoke: copy via revoked capability correctly fails: %v\n", err)
		} else {
			log.Fatal("revoked capability still worked!")
		}

		st := tb.Net().Stats()
		fmt.Printf("\nfabric totals: %d messages, %d bytes (%d cross-node msgs)\n",
			st.TotalMsgs(), st.TotalBytes(), st.CrossNodeMsgs)
	})
}
