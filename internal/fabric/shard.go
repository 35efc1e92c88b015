package fabric

import (
	"sort"

	"fractos/internal/assert"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Mesh is the partition-parallel fabric: the cluster's nodes are
// divided into contiguous blocks owned by the shards of a sim.Engine,
// each shard carrying its own Net (endpoints, links, stats, trace)
// over that shard's kernel. Frames between endpoints on the same
// shard are routed shard-locally; frames crossing shards become
// timestamped sim posts delivered at the engine's conservative
// barriers.
//
// Determinism across shard counts is a design goal, not a side
// effect, and rests on three rules:
//
//  1. Endpoint ids are assigned globally by the Mesh (Net.attachAt),
//     so a TraceEvent names the same endpoints no matter how nodes
//     map to shards.
//  2. Cross-node transfer timing uses only sender-side state: the
//     source node's uplink reservation plus fixed exit/wire/entry
//     latencies. (The single-kernel Net's receiver-side
//     dn.reserve(up, 0) books zero bytes and so never moves a
//     delivery time — the Mesh formula is the same arithmetic
//     without the receiver-side touch, which a parallel shard must
//     not make.)
//  3. Delivery timestamps always exceed the engine lookahead, which
//     the Mesh derives from the profile's minimum cross-node latency
//     (min exit + CrossNode + min entry, floored at 1ns for
//     degenerate zero-latency profiles).
//
// With those rules a workload whose message timing is a function of
// per-node state (every send charged to the sender's uplink) executes
// identically at any shard count; ties at one destination are broken
// by (timestamp, source shard, source sequence), which coincides with
// the single-kernel (timestamp, sequence) order whenever each
// destination has a single concurrent source (e.g. ring traffic).
// The Mesh carries message sends; RDMA stays within a shard via the
// per-shard Net.
type Mesh struct {
	eng       *sim.Engine
	prof      Profile
	nets      []*Net      // one per shard
	eps       []*Endpoint // global directory; index 0 unused
	owner     []int       // node -> owning shard
	lookahead sim.Time

	tracing bool
	traces  [][]TraceEvent // per-shard buffers, merged by Trace()
}

// NewMesh builds a partitioned fabric over eng's shards for a cluster
// of nodes, assigning node i to shard i*shards/nodes (contiguous
// blocks that nest across power-of-two shard counts). It installs the
// profile-derived lookahead on the engine.
func NewMesh(eng *sim.Engine, p Profile, nodes int) *Mesh {
	if p == (Profile{}) {
		p = DefaultProfile()
	}
	assert.That(nodes >= 1, "fabric: mesh needs at least one node, got %d", nodes)
	shards := eng.Shards()
	m := &Mesh{
		eng:    eng,
		prof:   p,
		nets:   make([]*Net, shards),
		eps:    make([]*Endpoint, 1),
		owner:  make([]int, nodes),
		traces: make([][]TraceEvent, shards),
	}
	for i := 0; i < shards; i++ {
		m.nets[i] = New(eng.Shard(i), p)
	}
	for n := 0; n < nodes; n++ {
		m.owner[n] = n * shards / nodes
	}
	la := minTime(p.HostExit, p.SNICExit) + p.CrossNode + minTime(p.HostEntry, p.SNICEntry)
	if la < 1 {
		la = 1 // min-latency fallback for zero-latency profiles
	}
	m.lookahead = la
	eng.SetLookahead(la)
	return m
}

func minTime(a, b sim.Time) sim.Time {
	if a < b {
		return a
	}
	return b
}

// Engine returns the simulation engine the mesh runs on.
func (m *Mesh) Engine() *sim.Engine { return m.eng }

// Nodes reports the cluster size the mesh was built for.
func (m *Mesh) Nodes() int { return len(m.owner) }

// Owner reports which shard owns a node.
func (m *Mesh) Owner(node int) int { return m.owner[node] }

// ShardNet returns the Net carrying a shard's endpoints (for
// shard-local operations like RDMA between co-sharded endpoints).
func (m *Mesh) ShardNet(shard int) *Net { return m.nets[shard] }

// Lookahead returns the profile-derived conservative window width.
func (m *Mesh) Lookahead() sim.Time { return m.lookahead }

// Attach registers an endpoint on loc's owning shard under a globally
// unique id. Must be called before the engine runs (attachment is not
// synchronized with running shards).
func (m *Mesh) Attach(name string, loc Location, arenaSize int) *Endpoint {
	assert.That(loc.Node >= 0 && loc.Node < len(m.owner),
		"fabric: node %d outside the %d-node mesh", loc.Node, len(m.owner))
	id := EndpointID(len(m.eps))
	e := m.nets[m.owner[loc.Node]].attachAt(id, name, loc, arenaSize)
	m.eps = append(m.eps, e)
	return e
}

// Lookup returns the endpoint with the given global id.
func (m *Mesh) Lookup(id EndpointID) (*Endpoint, bool) {
	if int(id) < len(m.eps) && m.eps[id] != nil {
		return m.eps[id], true
	}
	return nil, false
}

// Send serializes msg, charges the sender-side fabric model, and
// delivers into dst's inbox — shard-locally when both endpoints share
// a shard, through a cross-shard post otherwise. It must be called
// from the sending endpoint's shard (task or kernel context); the
// simdet analyzer flags the common ways to get this wrong.
//
// Like Net.Send it never blocks and reports false only for unknown
// endpoints or a disconnected sender; a disconnected *receiver* drops
// the frame at delivery time (the sender cannot observe the remote
// endpoint's state without crossing shards).
//
//fractos:hotpath
func (m *Mesh) Send(from, to EndpointID, msg wire.Message) bool {
	if int(from) >= len(m.eps) || int(to) >= len(m.eps) {
		return false
	}
	src, dst := m.eps[from], m.eps[to]
	if src == nil || dst == nil || src.disconnected {
		return false
	}
	srcShard := m.owner[src.Loc.Node]
	net := m.nets[srcShard]
	k := net.k

	w := wire.GetWriter(wire.SizeOf(msg))
	wire.MarshalTo(w, msg)
	frame := w.Bytes()
	nBytes := len(frame)
	decoded, derr := net.decode(frame)
	w.Release()

	now := k.Now()
	cross := src.Loc.Node != dst.Loc.Node
	var done sim.Time
	if !cross {
		done = net.links[src.Loc.Node].loc.reserve(now, nBytes) +
			m.prof.exit(src.Loc.Domain) + m.prof.entry(dst.Loc.Domain) + m.prof.NICTurn
	} else {
		// Sender-side-only cross-node formula (rule 2 above).
		done = net.links[src.Loc.Node].up.reserve(now, nBytes) +
			m.prof.exit(src.Loc.Domain) + m.prof.entry(dst.Loc.Domain) + m.prof.CrossNode
		if done-now < m.lookahead {
			done = now + m.lookahead
		}
	}
	net.account(msg.Class(), nBytes, cross, false)
	if m.tracing {
		m.traces[srcShard] = append(m.traces[srcShard], // fractos:alloc-ok trace capture is an opt-in diagnostic path
			TraceEvent{At: now, From: from, To: to, Type: msg.WireType(), Bytes: nBytes, Class: msg.Class()})
	}
	if derr != nil {
		return true // line corruption: bytes were charged, frame dropped
	}
	// The delivery may run on another shard's kernel, so it cannot be a
	// record from the sending Net's single-owner free list (acquired
	// here, released there); a closure carries the decoded message.
	// fractos:alloc-ok one closure per send is the cross-shard in-flight record
	k.Post(m.owner[dst.Loc.Node], done-now, func() {
		if dst.disconnected {
			return
		}
		dst.Inbox.TrySend(Delivery{From: from, Msg: decoded, Bytes: nBytes})
	})
	return true
}

// EnableTrace starts recording one TraceEvent per send into per-shard
// buffers. Must be called before the engine runs.
func (m *Mesh) EnableTrace() { m.tracing = true }

// Trace merges the per-shard trace buffers into one deterministic
// sequence ordered by (At, From); entries tied on both keys come from
// a single shard buffer (a source endpoint lives on exactly one
// shard) and keep that shard's order, so the merged trace is
// identical for every shard count and GOMAXPROCS.
func (m *Mesh) Trace() []TraceEvent {
	var out []TraceEvent
	for _, tb := range m.traces {
		out = append(out, tb...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].From < out[j].From
	})
	return out
}

// Stats sums the per-shard traffic counters.
func (m *Mesh) Stats() Stats {
	var s Stats
	for _, n := range m.nets {
		o := n.Stats()
		s.ControlMsgs += o.ControlMsgs
		s.ControlBytes += o.ControlBytes
		s.DataMsgs += o.DataMsgs
		s.DataBytes += o.DataBytes
		s.CrossNodeMsgs += o.CrossNodeMsgs
		s.CrossNodeBytes += o.CrossNodeBytes
		s.CrossNodeCtrlMsgs += o.CrossNodeCtrlMsgs
		s.CrossNodeDataMsgs += o.CrossNodeDataMsgs
		s.CrossNodeDataBytes += o.CrossNodeDataBytes
		s.RDMAOps += o.RDMAOps
		s.RDMABytes += o.RDMABytes
	}
	return s
}
