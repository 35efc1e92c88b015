package exp

import (
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// Stage-service RPC tags (the generic multi-stage pipeline of §6.2).
const (
	// tagXform: transform the stage's input buffer in place; reply via
	// slot 0 (star model — the client moves all data).
	tagXform uint64 = 0x50
	// tagPush: transform, then memory_copy the output into the Memory
	// capability in slot 0 and reply via slot 1 (fast-star — client
	// controls, data flows stage to stage).
	tagPush uint64 = 0x51
	// tagChain: transform, copy into slot 0, then invoke the Request
	// in slot 1 (chain — fully distributed control and data).
	tagChain uint64 = 0x52
)

// stageProcTime models each stage's fixed processing cost.
const stageProcTime = 5 * sim.Time(1000)

// pipeStage is one service stage with its input buffer.
type pipeStage struct {
	p     *proc.Process
	size  int
	inCap proc.Cap // stage's input buffer (clients copy into it)
	xform proc.Cap
	push  proc.Cap
	chain proc.Cap
}

// newPipeStage deploys a stage on a node.
func newPipeStage(tk *sim.Task, cl *core.Cluster, node, size int, name string) *pipeStage {
	s := &pipeStage{p: proc.Attach(cl, node, name, size), size: size}
	var err error
	if s.inCap, err = s.p.MemoryCreate(tk, 0, uint64(size), cap.MemRights); err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	if s.xform, err = s.p.RequestCreate(tk, tagXform, nil, nil); err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	if s.push, err = s.p.RequestCreate(tk, tagPush, nil, nil); err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	if s.chain, err = s.p.RequestCreate(tk, tagChain, nil, nil); err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	s.p.Serve(name+".loop", 1, s.serve)
	return s
}

// serve handles a stage invocation: transform (+1 to every byte of the
// n-byte input), then route the output per the model.
func (s *pipeStage) serve(t *sim.Task, d *proc.Delivery) {
	n := int(d.U64(0))
	if n > s.size {
		n = s.size
	}
	t.Sleep(stageProcTime)
	buf := s.p.Arena()[:n]
	for i := range buf {
		buf[i]++
	}
	switch d.Tag {
	case tagXform:
		d.Reply(0, nil, nil)
	case tagPush, tagChain:
		dst, ok := d.Cap(0)
		if !ok {
			return
		}
		if err := s.p.MemoryCopyRange(t, s.inCap, 0, dst, 0, uint64(n)); err != nil {
			assert.NoErr(err, "exp/pipeline")
		}
		// fast-star replies to the client; chain invokes the next
		// stage's Request verbatim, forwarding the length.
		if d.Tag == tagPush {
			d.Reply(1, nil, nil)
		} else {
			d.Reply(1, []wire.ImmArg{proc.U64Arg(0, uint64(n))}, nil)
		}
	}
}

// pipeline assembles S stages on distinct nodes plus a client, and
// runs one end-to-end execution per model. It verifies the data really
// passed through every stage (each adds 1 to every byte).
type pipeline struct {
	cl     *core.Cluster
	client *proc.Process
	buf    proc.Cap // client's data buffer (n bytes at arena offset 0)
	n      int
	stages []*pipeStage
	// client-held capabilities
	stageIn            []proc.Cap
	xform, push, chain []proc.Cap
}

func newPipeline(tk *sim.Task, cl *core.Cluster, nStages, n int) *pipeline {
	pl := &pipeline{cl: cl, n: n}
	pl.client = proc.Attach(cl, 0, "pipe-client", n)
	var err error
	if pl.buf, err = pl.client.MemoryCreate(tk, 0, uint64(n), cap.MemRights); err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	for i := 0; i < nStages; i++ {
		node := 1 + i%(len(cl.Ctrls)-1) // stages on nodes 1..N-1
		if len(cl.Ctrls) == 1 {
			node = 1 + i
		}
		st := newPipeStage(tk, cl, node, n, fmt.Sprintf("stage%d", i))
		pl.stages = append(pl.stages, st)
		grant := func(c proc.Cap) proc.Cap {
			g, err := proc.GrantCap(st.p, c, pl.client)
			if err != nil {
				assert.NoErr(err, "exp/pipeline")
			}
			return g
		}
		pl.stageIn = append(pl.stageIn, grant(st.inCap))
		pl.xform = append(pl.xform, grant(st.xform))
		pl.push = append(pl.push, grant(st.push))
		pl.chain = append(pl.chain, grant(st.chain))
	}
	return pl
}

func (pl *pipeline) fill() {
	b := pl.client.Arena()[:pl.n]
	for i := range b {
		b[i] = byte(i)
	}
}

func (pl *pipeline) check() {
	b := pl.client.Arena()[:pl.n]
	s := byte(len(pl.stages))
	for i := range b {
		if b[i] != byte(i)+s {
			assert.Failf("exp/pipeline: data corrupted at %d: got %d want %d", i, b[i], byte(i)+s)
		}
	}
}

// runStar executes the centralized model: the client moves data to and
// from every stage and drives all control.
func (pl *pipeline) runStar(tk *sim.Task) sim.Time {
	pl.fill()
	start := tk.Now()
	lenArg := []wire.ImmArg{proc.U64Arg(0, uint64(pl.n))}
	for i := range pl.stages {
		if err := pl.client.MemoryCopy(tk, pl.buf, pl.stageIn[i]); err != nil {
			assert.NoErr(err, "exp/pipeline")
		}
		if _, err := pl.client.Call(tk, pl.xform[i], lenArg, nil, 0); err != nil {
			assert.NoErr(err, "exp/pipeline")
		}
		if err := pl.client.MemoryCopy(tk, pl.stageIn[i], pl.buf); err != nil {
			assert.NoErr(err, "exp/pipeline")
		}
	}
	lat := tk.Now() - start
	pl.check()
	return lat
}

// runFastStar executes centralized control with direct data flow:
// each stage pushes its output straight to the next stage's buffer.
func (pl *pipeline) runFastStar(tk *sim.Task) sim.Time {
	pl.fill()
	start := tk.Now()
	lenArg := []wire.ImmArg{proc.U64Arg(0, uint64(pl.n))}
	if err := pl.client.MemoryCopy(tk, pl.buf, pl.stageIn[0]); err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	for i := range pl.stages {
		dst := pl.buf
		if i+1 < len(pl.stages) {
			dst = pl.stageIn[i+1]
		}
		if _, err := pl.client.Call(tk, pl.push[i], lenArg,
			[]proc.Arg{{Slot: 0, Cap: dst}}, 1); err != nil {
			assert.NoErr(err, "exp/pipeline")
		}
	}
	lat := tk.Now() - start
	pl.check()
	return lat
}

// runChain executes the fully distributed model: the client builds the
// continuation graph once, then a single invocation flows through all
// stages and returns (§3.4's pipeline pattern).
func (pl *pipeline) runChain(tk *sim.Task) sim.Time {
	pl.fill()
	// Build the graph tail-first: stage i's chain Request refined with
	// (dst = stage i+1's buffer, next = stage i+1's refined Request).
	reply, replyTag, err := pl.client.ReplyRequest(tk)
	if err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	next := reply
	var reqs []proc.Cap
	for i := len(pl.stages) - 1; i >= 1; i-- {
		dst := pl.buf
		nextReq := next
		if i+1 < len(pl.stages) {
			dst = pl.stageIn[i+1]
		}
		r, err := pl.client.Derive(tk, pl.chain[i], nil,
			[]proc.Arg{{Slot: 0, Cap: dst}, {Slot: 1, Cap: nextReq}})
		if err != nil {
			assert.NoErr(err, "exp/pipeline")
		}
		reqs = append(reqs, r)
		next = r
	}
	start := tk.Now()
	if err := pl.client.MemoryCopy(tk, pl.buf, pl.stageIn[0]); err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	dst0 := pl.buf
	if len(pl.stages) > 1 {
		dst0 = pl.stageIn[1]
	}
	f := pl.client.WaitTag(replyTag)
	if err := pl.client.Invoke(tk, pl.chain[0],
		[]wire.ImmArg{proc.U64Arg(0, uint64(pl.n))},
		[]proc.Arg{{Slot: 0, Cap: dst0}, {Slot: 1, Cap: next}}); err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	d, err := f.Wait(tk)
	if err != nil {
		assert.NoErr(err, "exp/pipeline")
	}
	d.Done()
	lat := tk.Now() - start
	pl.check()
	for _, r := range reqs {
		pl.client.Drop(tk, r)
	}
	pl.client.Drop(tk, reply)
	return lat
}

// Figure8 regenerates the composition study: star vs fast-star vs
// chain across stage counts and transfer sizes.
//
// Paper shape: direct data transfers dominate at 64 KiB (star vs
// fast-star ~1.6x); distributed control dominates at ≤4 KiB (fast-star
// vs chain ~1.45x).
func Figure8() *Table {
	t := NewTable("fig8", "Pipeline latency by model (µs, Controllers on CPUs)",
		"stages", "size", "star", "fast-star", "chain", "star/fast", "fast/chain")
	for _, stages := range []int{2, 4, 8} {
		for _, size := range []int{64, 4 << 10, 64 << 10} {
			var star, fast, chain sim.Time
			testbed.Run(testbed.Spec{Nodes: stages + 1}, func(tk *sim.Task, d *testbed.Deployment) {
				pl := newPipeline(tk, d.Cl, stages, size)
				star = pl.runStar(tk)
				fast = pl.runFastStar(tk)
				chain = pl.runChain(tk)
			})
			t.AddRow(fmt.Sprint(stages), testbed.SizeLabel(size),
				testbed.Us(star), testbed.Us(fast), testbed.Us(chain),
				fmt.Sprintf("%.2fx", float64(star)/float64(fast)),
				fmt.Sprintf("%.2fx", float64(fast)/float64(chain)))
			if stages == 4 && size == 64<<10 {
				t.Metric("star-over-fast-64k", float64(star)/float64(fast))
			}
			if stages == 4 && size == 4<<10 {
				t.Metric("fast-over-chain-4k", float64(fast)/float64(chain))
			}
		}
	}
	t.Note("paper: star/fast-star ≈ 1.6x at 64K; fast-star/chain ≈ 1.45x at 4K")
	return t
}
