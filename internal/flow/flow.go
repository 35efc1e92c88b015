// Package flow builds distributed execution patterns on top of
// libfractos Requests. §3.4 observes that Requests are "a generic
// mechanism for distributed execution that can express a variety of
// distributed execution models, such as RPCs, distributed pipelines,
// or distributed fork/join and data-flow patterns"; this package
// packages those shapes:
//
//   - Chain: the pipeline pattern — refine each stage's Request with
//     the next one as continuation and fire once (Figure 2's ring).
//   - Join: the fork/join pattern — a Request that collects n
//     invocations (one per forked branch) and resolves when all have
//     arrived.
//   - Scatter: fan a set of invocations out and join their
//     completions.
//
// Everything here is untrusted client-side convenience: the OS
// mechanisms underneath are exactly the Table 1 syscalls.
package flow

import (
	"fmt"

	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Step is one stage of a Chain: the stage's Request plus the argument
// slot its interface uses for the continuation, and optional preset
// refinements.
type Step struct {
	Req      proc.Cap
	ContSlot uint16
	Imms     []wire.ImmArg
	Args     []proc.Arg
}

// Chain builds the continuation graph for a pipeline tail-first and
// returns the entry Request and the future of the final delivery (the
// last stage invokes back into p). Invoke the entry Request to fire
// the pipeline; each intermediate Request is a derived object owned by
// its stage's Controller.
func Chain(t *sim.Task, p *proc.Process, steps []Step) (proc.Cap, *sim.Future[*proc.Delivery], error) {
	if len(steps) == 0 {
		return proc.Cap{}, nil, fmt.Errorf("flow: empty chain")
	}
	reply, tag, err := p.ReplyRequest(t)
	if err != nil {
		return proc.Cap{}, nil, err
	}
	next := reply
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		args := append(append([]proc.Arg(nil), s.Args...), proc.Arg{Slot: s.ContSlot, Cap: next})
		next, err = p.Derive(t, s.Req, s.Imms, args)
		if err != nil {
			return proc.Cap{}, nil, fmt.Errorf("flow: derive stage %d: %w", i, err)
		}
	}
	return next, p.WaitTag(tag), nil
}

// JoinHandle is an in-progress fork/join: a Request capability to hand
// to the branches, and the future of all collected deliveries.
type JoinHandle struct {
	// Req is the join Request; every branch invokes it on completion.
	Req proc.Cap
	// Done resolves with the n deliveries, in arrival order.
	Done *sim.Future[[]*proc.Delivery]
}

// Join creates a Request that expects n invocations — the join point
// of a fork/join graph. The deliveries are acknowledged automatically.
func Join(t *sim.Task, p *proc.Process, n int) (*JoinHandle, error) {
	if n <= 0 {
		return nil, fmt.Errorf("flow: join of %d branches", n)
	}
	tag := p.NewTag()
	req, err := p.RequestCreate(t, tag, nil, nil)
	if err != nil {
		return nil, err
	}
	ch := p.Subscribe(tag)
	done := sim.NewFuture[[]*proc.Delivery]()
	p.Kernel().Spawn("flow-join", func(jt *sim.Task) {
		var all []*proc.Delivery
		for len(all) < n {
			d, ok := ch.Recv(jt)
			if !ok {
				done.Fail(fmt.Errorf("flow: join channel closed"))
				return
			}
			d.Done()
			all = append(all, d)
		}
		p.Unsubscribe(tag)
		done.Set(all)
	})
	return &JoinHandle{Req: req, Done: done}, nil
}

// Branch is one fork of a Scatter: the Request to invoke and the
// argument slot its interface uses for the completion continuation.
type Branch struct {
	Req      proc.Cap
	ContSlot uint16
	Imms     []wire.ImmArg
	Args     []proc.Arg
}

// Scatter invokes every branch with the same join Request as
// completion continuation and returns the join. The branches execute
// concurrently wherever their providers live; the caller blocks only
// when it waits on the returned future.
func Scatter(t *sim.Task, p *proc.Process, branches []Branch) (*JoinHandle, error) {
	join, err := Join(t, p, len(branches))
	if err != nil {
		return nil, err
	}
	for i, b := range branches {
		args := append(append([]proc.Arg(nil), b.Args...), proc.Arg{Slot: b.ContSlot, Cap: join.Req})
		if err := p.Invoke(t, b.Req, b.Imms, args); err != nil {
			return nil, fmt.Errorf("flow: scatter branch %d: %w", i, err)
		}
	}
	return join, nil
}
