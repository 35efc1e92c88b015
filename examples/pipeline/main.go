// Pipeline: service composition under the three execution models of
// §6.2 — star (centralized app moves all data and control), fast-star
// (centralized control, direct stage-to-stage data), and chain (fully
// distributed: one continuation graph flows through all stages).
//
// The demo builds a 4-stage pipeline across 5 nodes, pushes a buffer
// through it under each model, verifies the data really visited every
// stage, and reports latency and network traffic side by side.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

const (
	tagXform = 1 // transform in place, reply via slot 0
	tagPush  = 2 // transform, copy to slot-0 Memory, reply via slot 1
	tagChain = 3 // transform, copy to slot-0 Memory, invoke slot-1 Request
)

// stage is one pipeline service: it owns an input buffer and increments
// every byte it processes.
type stage struct {
	p                  *proc.Process
	in                 proc.Cap
	xform, push, chain proc.Cap
}

func newStage(t *sim.Task, cl *core.Cluster, node, size int, name string) *stage {
	s := &stage{p: proc.Attach(cl, node, name, size)}
	mustCap := func(c proc.Cap, err error) proc.Cap {
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	s.in = mustCap(s.p.MemoryCreate(t, 0, uint64(size), cap.MemRights))
	s.xform = mustCap(s.p.RequestCreate(t, tagXform, nil, nil))
	s.push = mustCap(s.p.RequestCreate(t, tagPush, nil, nil))
	s.chain = mustCap(s.p.RequestCreate(t, tagChain, nil, nil))
	s.p.Serve(name, 1, func(st *sim.Task, d *proc.Delivery) {
		n := int(d.U64(0))
		buf := s.p.Arena()[:n]
		for i := range buf {
			buf[i]++
		}
		switch d.Tag {
		case tagXform:
			d.Reply(0, nil, nil)
		case tagPush, tagChain:
			dst, _ := d.Cap(0)
			if err := s.p.MemoryCopyRange(st, s.in, 0, dst, 0, uint64(n)); err != nil {
				log.Fatal(err)
			}
			if d.Tag == tagPush {
				d.Reply(1, nil, nil)
			} else {
				d.Reply(1, []wire.ImmArg{proc.U64Arg(0, uint64(n))}, nil)
			}
		}
	})
	return s
}

func main() {
	const (
		nStages = 4
		size    = 16 << 10
	)
	testbed.Run(testbed.Spec{Nodes: nStages + 1}, func(t *sim.Task, tb *testbed.Deployment) {
		cl := tb.Cl
		client := tb.Attach(0, "client", size)
		buf, err := client.MemoryCreate(t, 0, size, cap.MemRights)
		if err != nil {
			log.Fatal(err)
		}

		var in, xform, push, chain []proc.Cap
		for i := 0; i < nStages; i++ {
			s := newStage(t, cl, i+1, size, fmt.Sprintf("stage%d", i))
			_ = s
			grant := func(c proc.Cap) proc.Cap {
				g, err := proc.GrantCap(s.p, c, client)
				if err != nil {
					log.Fatal(err)
				}
				return g
			}
			in = append(in, grant(s.in))
			xform = append(xform, grant(s.xform))
			push = append(push, grant(s.push))
			chain = append(chain, grant(s.chain))
		}

		fill := func() {
			for i := range client.Arena()[:size] {
				client.Arena()[i] = byte(i)
			}
		}
		check := func(model string) {
			for i, b := range client.Arena()[:size] {
				if b != byte(i)+nStages {
					log.Fatalf("%s: data did not pass through all stages", model)
				}
			}
		}
		lenArg := []wire.ImmArg{proc.U64Arg(0, size)}
		report := func(model string, run func() sim.Time) {
			before := cl.Net.Stats()
			fill()
			lat := run()
			check(model)
			d := cl.Net.Stats().Sub(before)
			fmt.Printf("%-10s %10v   %3d cross-node msgs   %7.1f KB on wire\n",
				model, lat, d.CrossNodeMsgs, float64(d.CrossNodeBytes)/1024)
		}

		fmt.Printf("4-stage pipeline, %d KiB payload, one stage per node:\n\n", size>>10)
		report("star", func() sim.Time {
			start := t.Now()
			for i := 0; i < nStages; i++ {
				if err := client.MemoryCopy(t, buf, in[i]); err != nil {
					log.Fatal(err)
				}
				if _, err := client.Call(t, xform[i], lenArg, nil, 0); err != nil {
					log.Fatal(err)
				}
				if err := client.MemoryCopy(t, in[i], buf); err != nil {
					log.Fatal(err)
				}
			}
			return t.Now() - start
		})

		report("fast-star", func() sim.Time {
			start := t.Now()
			if err := client.MemoryCopy(t, buf, in[0]); err != nil {
				log.Fatal(err)
			}
			for i := 0; i < nStages; i++ {
				dst := buf
				if i+1 < nStages {
					dst = in[i+1]
				}
				if _, err := client.Call(t, push[i], lenArg, []proc.Arg{{Slot: 0, Cap: dst}}, 1); err != nil {
					log.Fatal(err)
				}
			}
			return t.Now() - start
		})

		report("chain", func() sim.Time {
			// Build the continuation graph tail-first, then fire once.
			reply, replyTag, err := client.ReplyRequest(t)
			if err != nil {
				log.Fatal(err)
			}
			next := reply
			for i := nStages - 1; i >= 1; i-- {
				dst := buf
				if i+1 < nStages {
					dst = in[i+1]
				}
				if next, err = client.Derive(t, chain[i], nil,
					[]proc.Arg{{Slot: 0, Cap: dst}, {Slot: 1, Cap: next}}); err != nil {
					log.Fatal(err)
				}
			}
			start := t.Now()
			if err := client.MemoryCopy(t, buf, in[0]); err != nil {
				log.Fatal(err)
			}
			f := client.WaitTag(replyTag)
			if err := client.Invoke(t, chain[0], lenArg,
				[]proc.Arg{{Slot: 0, Cap: in[1]}, {Slot: 1, Cap: next}}); err != nil {
				log.Fatal(err)
			}
			d, err := f.Wait(t)
			if err != nil {
				log.Fatal(err)
			}
			d.Done()
			return t.Now() - start
		})

		fmt.Println("\nchain = the paper's fully distributed model: fewest messages, lowest latency")
	})
}
