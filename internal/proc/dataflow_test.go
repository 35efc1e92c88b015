package proc_test

import (
	"sort"
	"testing"

	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// The execution patterns of §3.4 need nothing but Table 1's Request
// syscalls: a chain is a Request refined with the next stage as its
// continuation, a fork/join one Request every branch answers through.

// stageWorker deploys a service that sleeps work, appends its mark to
// the immediates and answers through the continuation in slot 0; it
// returns the service's Request, granted to client.
func stageWorker(tk *sim.Task, cl *core.Cluster, node int, mark byte, work sim.Time, client *proc.Process) (proc.Cap, error) {
	p := proc.Attach(cl, node, string(mark), 0)
	p.Serve(string(mark), 1, func(st *sim.Task, d *proc.Delivery) {
		st.Sleep(work)
		out := append(append([]byte(nil), d.Imms...), mark)
		d.Reply(0, []wire.ImmArg{proc.BytesArg(0, out)}, nil)
	})
	req, err := p.RequestCreate(tk, 1, nil, nil)
	if err != nil {
		return proc.Cap{}, err
	}
	return proc.GrantCap(p, req, client)
}

// chain refines the stages tail-first, each with the next as its
// continuation and the last with a reply Request, and returns the entry,
// the reply Request and its tag.
func chain(tk *sim.Task, p *proc.Process, stages []proc.Cap) (proc.Cap, proc.Cap, uint64, error) {
	reply, tag, err := p.ReplyRequest(tk)
	next := reply
	for i := len(stages) - 1; i >= 0 && err == nil; i-- {
		next, err = p.Derive(tk, stages[i], nil, []proc.Arg{{Slot: 0, Cap: next}})
	}
	return next, reply, tag, err
}

func TestChainRunsStagesInOrder(t *testing.T) {
	run(t, testbed.Spec{Nodes: 4}, func(tk *sim.Task, cl *core.Cluster) {
		client := proc.Attach(cl, 0, "client", 0)
		var stages []proc.Cap
		for i := 0; i < 3; i++ {
			s, err := stageWorker(tk, cl, i+1, byte('1'+i), us(10), client)
			if err != nil {
				t.Error(err)
				return
			}
			stages = append(stages, s)
		}
		entry, reply, tag, err := chain(tk, client, stages)
		if err != nil {
			t.Error(err)
			return
		}
		d, err := client.CallWith(tk, entry, []wire.ImmArg{proc.BytesArg(0, []byte("x"))}, nil, reply, tag)
		if err != nil {
			t.Error(err)
			return
		}
		if string(d.Imms) != "x123" {
			t.Errorf("chain result = %q, want x123", d.Imms)
		}
	})
}

// branchWorkers deploys one stageWorker per mark on nodes 1.., the i-th
// sleeping work(i).
func branchWorkers(tk *sim.Task, cl *core.Cluster, client *proc.Process, marks string, work func(i int) sim.Time) ([]proc.Cap, error) {
	var branches []proc.Cap
	for i := 0; i < len(marks); i++ {
		b, err := stageWorker(tk, cl, i+1, marks[i], work(i), client)
		if err != nil {
			return nil, err
		}
		branches = append(branches, b)
	}
	return branches, nil
}

// forkJoin invokes every branch with one join Request as its
// continuation, receives one answer per branch and returns their
// immediates, sorted.
func forkJoin(tk *sim.Task, client *proc.Process, branches []proc.Cap) ([]byte, error) {
	join, err := client.RequestCreate(tk, client.NewTag(), nil, nil)
	if err != nil {
		return nil, err
	}
	for _, b := range branches {
		if err := client.Invoke(tk, b, nil, []proc.Arg{{Slot: 0, Cap: join}}); err != nil {
			return nil, err
		}
	}
	var merged []byte
	for range branches {
		d, _ := client.Receive(tk)
		d.Done()
		merged = append(merged, d.Imms...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	return merged, nil
}

// TestScatterJoinsAllBranches: branches of unequal length each answer
// the join Request exactly once.
func TestScatterJoinsAllBranches(t *testing.T) {
	run(t, testbed.Spec{Nodes: 4}, func(tk *sim.Task, cl *core.Cluster) {
		client := proc.Attach(cl, 0, "client", 0)
		branches, err := branchWorkers(tk, cl, client, "ABC", func(i int) sim.Time { return us(20 * float64(i+1)) })
		if err != nil {
			t.Error(err)
			return
		}
		merged, err := forkJoin(tk, client, branches)
		if err != nil {
			t.Error(err)
			return
		}
		if string(merged) != "ABC" {
			t.Errorf("joined %q, want every branch once", merged)
		}
	})
}

// TestScatterRunsConcurrently: three 100 µs branches join in about one
// branch time, not three.
func TestScatterRunsConcurrently(t *testing.T) {
	run(t, testbed.Spec{Nodes: 4}, func(tk *sim.Task, cl *core.Cluster) {
		client := proc.Attach(cl, 0, "client", 0)
		branches, err := branchWorkers(tk, cl, client, "xxx", func(int) sim.Time { return us(100) })
		if err != nil {
			t.Error(err)
			return
		}
		start := tk.Now()
		if _, err := forkJoin(tk, client, branches); err != nil {
			t.Error(err)
			return
		}
		if elapsed := tk.Now() - start; elapsed > us(200) {
			t.Errorf("3×100µs branches took %v; fork/join must overlap them", elapsed)
		}
	})
}

// TestForkJoinIntoChain composes the patterns: the joined results of
// two branches flow through a chained stage — a small dataflow DAG
// across four nodes.
func TestForkJoinIntoChain(t *testing.T) {
	run(t, testbed.Spec{Nodes: 4}, func(tk *sim.Task, cl *core.Cluster) {
		client := proc.Attach(cl, 0, "client", 0)
		branches, err := branchWorkers(tk, cl, client, "ab", func(int) sim.Time { return us(10) })
		if err != nil {
			t.Error(err)
			return
		}
		rank, err := stageWorker(tk, cl, 3, 'Z', us(10), client)
		if err != nil {
			t.Error(err)
			return
		}
		merged, err := forkJoin(tk, client, branches)
		if err != nil {
			t.Error(err)
			return
		}

		entry, reply, tag, err := chain(tk, client, []proc.Cap{rank})
		if err != nil {
			t.Error(err)
			return
		}
		d, err := client.CallWith(tk, entry, []wire.ImmArg{proc.BytesArg(0, merged)}, nil, reply, tag)
		if err != nil {
			t.Error(err)
			return
		}
		if string(d.Imms) != "abZ" {
			t.Errorf("dag result = %q, want abZ", d.Imms)
		}
	})
}
