// Dataflow: §3.4 notes that Requests express "a variety of distributed
// execution patterns, from synchronous RPCs to complex data-flow
// models". This demo runs a small DAG across four nodes with nothing
// but Table 1's Request syscalls:
//
//	          ┌─> tokenize (node 1) ─┐
//	client ───┤                      ├─> rank (node 3) ─> client
//	          └─> stem     (node 2) ─┘
//
// The two analysis branches execute concurrently (fork), their results
// are joined at the client, and the merged output flows through a
// final chained stage whose continuation returns home. Every arrow is
// a Request invocation; no stage knows what runs before or after it.
//
// Run with: go run ./examples/dataflow
package main

import (
	"fmt"
	"log"
	"strings"

	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// deployStage starts a text-transforming service on a node.
func deployStage(cl *core.Cluster, node int, name string, fn func(string) string) *proc.Process {
	p := proc.Attach(cl, node, name, 0)
	p.Serve(name+".loop", 1, func(_ *sim.Task, d *proc.Delivery) {
		out := fn(string(d.Imms))
		if err := d.Reply(0, []wire.ImmArg{proc.BytesArg(0, []byte(out))}, nil); err != nil {
			log.Fatal(err)
		}
	})
	return p
}

func main() {
	testbed.Run(testbed.Spec{Nodes: 4}, func(t *sim.Task, tb *testbed.Deployment) {
		cl := tb.Cl
		client := tb.Attach(0, "client", 0)

		tokenize := deployStage(cl, 1, "tokenize", func(s string) string {
			return fmt.Sprintf("tokens=%d", len(strings.Fields(s)))
		})
		stem := deployStage(cl, 2, "stem", func(s string) string {
			return fmt.Sprintf("stems=%d", strings.Count(strings.ToLower(s), "ing"))
		})
		rank := deployStage(cl, 3, "rank", func(s string) string {
			return "ranked{" + s + "}"
		})

		grant := func(w *proc.Process) proc.Cap {
			req, err := w.RequestCreate(t, 1, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			g, err := proc.GrantCap(w, req, client)
			if err != nil {
				log.Fatal(err)
			}
			return g
		}

		input := "slashing the disaggregation tax by chaining and composing requests"
		fmt.Printf("input: %q\n\n", input)

		// Fork: both analyses run concurrently on their own nodes, and
		// both answer through one join Request, which the client serves
		// while it is still invoking: it collects the results in arrival
		// order.
		start := t.Now()
		imms := []wire.ImmArg{proc.BytesArg(0, []byte(input))}
		branches := []proc.Cap{grant(tokenize), grant(stem)}
		join, err := client.RequestCreate(t, client.NewTag(), nil, nil)
		if err != nil {
			log.Fatal(err)
		}
		var merged []string
		var joined sim.WaitGroup
		joined.Add(len(branches))
		client.Serve("join", 1, func(_ *sim.Task, d *proc.Delivery) {
			merged = append(merged, string(d.Imms))
			joined.Done()
		})
		for _, b := range branches {
			if err := client.Invoke(t, b, imms, []proc.Arg{{Slot: 0, Cap: join}}); err != nil {
				log.Fatal(err)
			}
		}
		joined.Wait(t)
		fmt.Printf("fork/join: %v after %v\n", merged, t.Now()-start)

		// Chain: the ranking stage's Request, refined with a reply
		// Request as its continuation, carries the merged result there
		// and back.
		rankReq := grant(rank)
		reply, tag, err := client.ReplyRequest(t)
		if err != nil {
			log.Fatal(err)
		}
		entry, err := client.Derive(t, rankReq, nil, []proc.Arg{{Slot: 0, Cap: reply}})
		if err != nil {
			log.Fatal(err)
		}
		done := client.WaitTag(tag)
		if err := client.Invoke(t, entry,
			[]wire.ImmArg{proc.BytesArg(0, []byte(strings.Join(merged, " ")))}, nil); err != nil {
			log.Fatal(err)
		}
		d, err := done.Wait(t)
		if err != nil {
			log.Fatal(err)
		}
		d.Done()
		fmt.Printf("chained:   %s\n", d.Imms)
		fmt.Printf("\ntotal virtual time: %v\n", t.Now())
	})
}
