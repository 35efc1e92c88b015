// Package fabric models the data-center network of the FractOS
// testbed: a small cluster of nodes with RoCE NICs and optional
// SmartNICs, joined by a 10 Gbps switch (Table 2 of the paper).
//
// The fabric is the substitution point for the hardware the paper
// uses: every message is really serialized with the wire codec, its
// byte length is charged against link bandwidth, and per-class
// (control vs data) message and byte counters feed the
// traffic-reduction experiments. RDMA read/write/third-party-copy
// primitives move real bytes between registered memory arenas with
// modeled latency, standing in for the verbs API.
//
// What travels is the encoded Frame, and it is decoded where it is
// consumed: a Handler endpoint is handed the Frame and decodes it
// through its own wire.Decoder when it gets to it, then releases it; a
// bare endpoint's Inbox gets an owning wire.Unmarshal at delivery. Send
// itself never decodes.
package fabric

import (
	"errors"
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// EndpointID identifies an attached entity (Process or Controller).
type EndpointID uint32

// Domain says where on a node an endpoint executes.
type Domain uint8

const (
	// Host is the node's main CPU (processes, CPU controllers).
	Host Domain = iota
	// SNIC is the node's SmartNIC (BlueField-style ARM cores).
	SNIC
)

func (d Domain) String() string {
	if d == SNIC {
		return "snic"
	}
	return "host"
}

// Location places an endpoint on the cluster.
type Location struct {
	Node   int
	Domain Domain
}

func (l Location) String() string { return fmt.Sprintf("n%d/%s", l.Node, l.Domain) }

// Profile holds the latency/bandwidth calibration of the fabric. The
// defaults reproduce the measurements of Table 3 and the RDMA numbers
// quoted in §6.1.
type Profile struct {
	// HostExit/HostEntry: cost of a message leaving/entering a
	// host-CPU endpoint through the NIC (PCIe + doorbell + poll).
	HostExit  sim.Time
	HostEntry sim.Time
	// SNICExit/SNICEntry: the same for endpoints on the SmartNIC
	// itself. Entry is slower than exit: the wimpy ARM cores pay more
	// to receive and demultiplex than to post a send.
	SNICExit  sim.Time
	SNICEntry sim.Time
	// NICTurn: latency through the local NIC for same-node traffic.
	NICTurn sim.Time
	// CrossNode: one-way wire+switch latency between nodes.
	CrossNode sim.Time
	// RDMARemote: per-direction NIC-only cost at the passive side of
	// an RDMA operation (no CPU involvement).
	RDMARemote sim.Time
	// WireBW: link bandwidth in bytes/second (10 Gbps default).
	WireBW float64
	// LocalBW: bandwidth for same-node transfers (PCIe-bound).
	LocalBW float64
}

// DefaultProfile returns the calibration used throughout the
// evaluation (Table 2's 10 Gbps fabric; Table 3's latencies).
func DefaultProfile() Profile {
	return Profile{
		HostExit:   600 * nanosecond,
		HostEntry:  610 * nanosecond,
		SNICExit:   300 * nanosecond,
		SNICEntry:  2170 * nanosecond,
		NICTurn:    0,
		CrossNode:  850 * nanosecond,
		RDMARemote: 250 * nanosecond,
		WireBW:     1.25e9, // 10 Gbps
		LocalBW:    6.0e9,  // PCIe loopback
	}
}

const nanosecond = sim.Time(1)

// exit returns the sender-side latency for a domain.
func (p *Profile) exit(d Domain) sim.Time {
	if d == SNIC {
		return p.SNICExit
	}
	return p.HostExit
}

// entry returns the receiver-side latency for a domain.
func (p *Profile) entry(d Domain) sim.Time {
	if d == SNIC {
		return p.SNICEntry
	}
	return p.HostEntry
}

// Delivery is a message as it arrives in a bare endpoint's Inbox:
// decoded at delivery, owned by whoever receives it.
type Delivery struct {
	From  EndpointID
	Msg   wire.Message
	Bytes int
}

// Handler receives an endpoint's frames: the delivery event calls
// Deliver in kernel context, where it may Send, Spawn, resolve futures
// and TrySend but never block (it has no *sim.Task to block on). The
// Frame is the handler's from then on: it decodes f.Bytes() when it
// gets to it — now, or after queueing the Frame behind earlier ones —
// and calls f.Release exactly once when it is done with everything
// that decode borrowed from the frame.
type Handler interface {
	//fractos:ordered
	Deliver(f *Frame)
}

// Endpoint is an attached entity with a Handler or, failing that, an
// Inbox for its frames, and (optionally) an RDMA-registered arena.
type Endpoint struct {
	ID    EndpointID
	Name  string
	Loc   Location
	Inbox *sim.Chan[Delivery]
	rx    Handler

	// arena is the materialized prefix of the registered memory: the
	// bytes someone has touched, grown geometrically on demand up to
	// arenaSize, the registered size. Many endpoints (Controller bounce
	// pools, a GPU's memory) register far more than they ever touch, and
	// the registration size alone drives the timing model.
	arena        []byte
	arenaSize    int
	disconnected bool
}

// Arena returns the endpoint's whole registered memory, materializing
// all of it. After Arena the backing store is final: the slice stays
// valid and every later access, RDMA included, lands in it. It is for
// an owner that keeps its memory at hand (an application's buffers,
// tests); a device that touches a little of a large arena takes ranged
// views instead.
func (e *Endpoint) Arena() []byte {
	if len(e.arena) < e.arenaSize {
		nb := make([]byte, e.arenaSize)
		copy(nb, e.arena)
		e.arena = nb
	}
	return e.arena
}

// ArenaRange returns a ranged view of the arena, bytes [off, off+n),
// materializing only the prefix that covers them (grown geometrically,
// up to the registered size). The RDMA paths and a device adaptor
// touching its own memory use it, so an endpoint pays for the bytes it
// uses, not for the size it registered.
//
// The ownership rule for ranged views: a view is valid until the next
// access that may grow the arena — another ArenaRange, an RDMA op
// against the endpoint — and is never held across an event or a block.
// Take it at the instant the bytes are used. (Once Arena has
// materialized the whole size nothing grows again, which is why a
// retained Arena slice stays valid.)
func (e *Endpoint) ArenaRange(off, n int) []byte {
	if need := off + n; need > len(e.arena) {
		newLen := 2 * len(e.arena)
		if newLen < need {
			newLen = need
		}
		if newLen > e.arenaSize {
			newLen = e.arenaSize
		}
		nb := make([]byte, newLen) // the arena's touched prefix materializes geometrically up to the registered size, then never again
		copy(nb, e.arena)
		e.arena = nb
	}
	return e.arena[off : off+n]
}

// ArenaSize returns the registered arena size without materializing
// the backing storage. Bounds checks and capacity accounting should
// use this instead of len(Arena()).
func (e *Endpoint) ArenaSize() int { return e.arenaSize }

// ArenaBytes returns the bytes of the arena materialized so far.
func (e *Endpoint) ArenaBytes() int { return len(e.arena) }

// Stats are the fabric's cumulative traffic counters, split by
// message class.
type Stats struct {
	ControlMsgs  int64
	ControlBytes int64
	DataMsgs     int64
	DataBytes    int64
	// CrossNodeMsgs/Bytes count only traffic that traversed the
	// switch (the "network tax" the paper measures); same-node
	// loopback and PCIe traffic is excluded. The Ctrl/Data split
	// distinguishes control-plane messages from bulk transfers.
	CrossNodeMsgs      int64
	CrossNodeBytes     int64
	CrossNodeCtrlMsgs  int64
	CrossNodeDataMsgs  int64
	CrossNodeDataBytes int64
	// RDMAOps/Bytes count one-sided RDMA transfers (also included in
	// Data and, when remote, CrossNode).
	RDMAOps   int64
	RDMABytes int64
}

// Sub returns s - o, for measuring an interval between snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ControlMsgs:        s.ControlMsgs - o.ControlMsgs,
		ControlBytes:       s.ControlBytes - o.ControlBytes,
		DataMsgs:           s.DataMsgs - o.DataMsgs,
		DataBytes:          s.DataBytes - o.DataBytes,
		CrossNodeMsgs:      s.CrossNodeMsgs - o.CrossNodeMsgs,
		CrossNodeBytes:     s.CrossNodeBytes - o.CrossNodeBytes,
		CrossNodeCtrlMsgs:  s.CrossNodeCtrlMsgs - o.CrossNodeCtrlMsgs,
		CrossNodeDataMsgs:  s.CrossNodeDataMsgs - o.CrossNodeDataMsgs,
		CrossNodeDataBytes: s.CrossNodeDataBytes - o.CrossNodeDataBytes,
		RDMAOps:            s.RDMAOps - o.RDMAOps,
		RDMABytes:          s.RDMABytes - o.RDMABytes,
	}
}

// TotalMsgs returns control+data message count.
func (s Stats) TotalMsgs() int64 { return s.ControlMsgs + s.DataMsgs }

// TotalBytes returns control+data byte count.
func (s Stats) TotalBytes() int64 { return s.ControlBytes + s.DataBytes }

// TraceEvent describes one fabric transfer, for the trace tool and
// tests.
type TraceEvent struct {
	At    sim.Time
	From  EndpointID
	To    EndpointID
	Type  wire.Type // 0 for RDMA transfers
	RDMA  bool
	Bytes int
	Class wire.Class
	// Lost marks a frame the chaos layer consumed (probabilistic drop
	// or a cut path): it occupied the wire but was never delivered.
	Lost bool
}

// link models a transmission resource with bandwidth, shared by two
// strict-priority classes, as a Controller posts its messages on
// message QPs above its RDMA QPs. Two-sided messages serialize among
// themselves (msgUntil) and overtake one-sided RDMA; an RDMA op starts
// no earlier than everything booked before it finished (busyUntil),
// and each message pushes that horizon back by its own serialization
// time, so bandwidth is conserved and a booked op keeps its instant.
// The wait for an RDMA frame already on the wire (up to one MTU) is not
// modelled.
type link struct {
	bw        float64
	busyUntil sim.Time // every booking: RDMA and messages
	msgUntil  sim.Time // messages only
}

// reserve books n bytes of one-sided RDMA starting at now, returning
// when the transmission completes on this link.
func (l *link) reserve(now sim.Time, n int) sim.Time {
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	dur := sim.Time(float64(n) / l.bw * 1e9)
	l.busyUntil = start + dur
	return l.busyUntil
}

// send books an n-byte message starting at now behind earlier messages
// only, returning when it completes on this link.
func (l *link) send(now sim.Time, n int) sim.Time {
	start := max(now, l.msgUntil)
	dur := sim.Time(float64(n) / l.bw * 1e9)
	l.msgUntil = start + dur
	l.busyUntil = max(l.busyUntil, start) + dur
	return l.msgUntil
}

// nodeLinks bundles a node's two transmission resources: switch
// uplink (tx) and the local/PCIe path. The switch downlink (rx) is
// not modelled, so incast at a receiver does not queue. Stored by
// value in a slice indexed by node so the hot send path does no map
// lookups and no per-link pointer chasing.
type nodeLinks struct {
	up, loc link
	valid   bool
}

// Net is the simulated fabric.
type Net struct {
	k    *sim.Kernel
	prof Profile
	// eps is indexed by EndpointID; IDs are assigned sequentially from 1
	// so index 0 stays nil. A slice keeps the two endpoint resolutions on
	// the per-message send path branch-predictable and map-free.
	eps   []*Endpoint
	stats Stats
	trace func(TraceEvent)
	links []nodeLinks // indexed by node number
	// faults is the chaos layer (faults.go); nil when disabled, which
	// keeps the fault-free send path branch-cheap and byte-identical
	// to a build without the layer.
	faults *faultState

	// rd serves the bare endpoints' owning decodes (Frame.Fire), and
	// frames recycles the Frame records with their buffers. Both belong
	// to the Net's kernel context alone.
	rd     wire.Reader
	frames sim.FreeList[Frame]
}

// Frame is one encoded message on its way to dst and then in its
// receiver's hands: a pooled record that owns the buffer the message
// was encoded into. It is the target of the delivery event
// (sim.Callback), so a send schedules its delivery without allocating a
// closure. A Frame is live from launch until Release — by its Handler,
// by Fire after a bare endpoint's message has been decoded out of it, or
// by Fire at a receiver that disconnected meanwhile — and is cleared
// then: a stale reference finds net == nil and trips the asserts, and
// under the race detector reads a buffer of 0xDB (poison_race.go).
type Frame struct {
	From EndpointID
	net  *Net
	dst  *Endpoint
	w    wire.Writer
}

// maxPooledFrame bounds the buffer a released Frame keeps, so a rare
// giant message does not pin its size for the rest of the run.
const maxPooledFrame = 1 << 20

// Bytes returns the encoded message, type header included. It is valid
// until Release.
func (f *Frame) Bytes() []byte { return f.w.Bytes() }

// Release clears the Frame and returns it, with its buffer, to the
// free list of the fabric that launched it.
func (f *Frame) Release() {
	n := f.net
	assert.True(n != nil, "fabric: frame released twice")
	poisonFrame(f.w.Bytes())
	if cap(f.w.Bytes()) > maxPooledFrame {
		f.w = wire.Writer{}
	}
	f.w.Reset()
	f.From, f.net, f.dst = 0, nil, nil
	n.frames.Put(f)
}

// launch hands an encoded Frame to the kernel: its delivery event owns
// it from here until Fire passes it on or releases it.
func (n *Net) launch(f *Frame, delay sim.Time) {
	n.k.AfterCall(delay, f)
}

// Fire is the delivery event. A receiver that disconnected while the
// frame was on the wire never sees it; a Handler takes the Frame over;
// a bare endpoint gets the message decoded into storage of its own, and
// a frame that does not decode is dropped like line corruption.
func (f *Frame) Fire() {
	assert.True(f.net != nil, "fabric: frame fired after release")
	dst := f.dst
	if dst.disconnected {
		f.Release()
		return
	}
	if dst.rx != nil {
		dst.rx.Deliver(f)
		return
	}
	m, err := wire.UnmarshalWith(&f.net.rd, f.Bytes()) // a bare endpoint keeps what it receives: the owning decode allocates the message (struct and payload copies), once per delivery by design
	d := Delivery{From: f.From, Msg: m, Bytes: len(f.Bytes())}
	f.Release()
	if err == nil {
		dst.Inbox.TrySend(d)
	}
}

// New creates a fabric over the given kernel with profile p.
func New(k *sim.Kernel, p Profile) *Net {
	n := &Net{
		k:    k,
		prof: p,
		eps:  make([]*Endpoint, 1), // index 0 unused; IDs start at 1
	}
	k.Track("fabric frame", &n.frames)
	return n
}

// Kernel returns the simulation kernel the fabric runs on.
func (n *Net) Kernel() *sim.Kernel { return n.k }

// Lossy reports whether the chaos layer is installed: frames may be
// dropped, duplicated, delayed, or cut. It is fixed before the first
// frame, and Controllers read it to decide whether to retransmit and
// keep at-most-once replies at all.
func (n *Net) Lossy() bool { return n.faults != nil }

// Profile returns the fabric's calibration.
func (n *Net) Profile() Profile { return n.prof }

// SetTrace installs a hook invoked for every transfer.
func (n *Net) SetTrace(fn func(TraceEvent)) { n.trace = fn }

// Stats returns the cumulative traffic counters.
func (n *Net) Stats() Stats { return n.stats }

// ArenaBytes returns the arena bytes materialized over every endpoint:
// the host memory the fabric's registered arenas cost, as opposed to
// the sizes they registered.
func (n *Net) ArenaBytes() int {
	sum := 0
	for _, e := range n.eps[1:] {
		sum += e.ArenaBytes()
	}
	return sum
}

// Attach registers an endpoint at loc with an arena of arenaSize
// bytes (0 for none), whose frames queue in Inbox for a task to Recv.
func (n *Net) Attach(name string, loc Location, arenaSize int) *Endpoint {
	return n.AttachHandler(name, loc, arenaSize, nil)
}

// AttachHandler is Attach for an endpoint whose frames go to rx
// instead: it has no Inbox (unless rx is nil).
func (n *Net) AttachHandler(name string, loc Location, arenaSize int, rx Handler) *Endpoint {
	e := &Endpoint{ID: EndpointID(len(n.eps)), Name: name, Loc: loc, rx: rx, arenaSize: arenaSize}
	if rx == nil {
		e.Inbox = sim.NewChan[Delivery](n.k, name+".inbox", 0)
	}
	n.eps = append(n.eps, e)
	n.ensureLinks(loc.Node)
	return e
}

func (n *Net) ensureLinks(node int) {
	for len(n.links) <= node {
		n.links = append(n.links, nodeLinks{})
	}
	l := &n.links[node]
	if !l.valid {
		l.up = link{bw: n.prof.WireBW}
		l.loc = link{bw: n.prof.LocalBW}
		l.valid = true
	}
}

// lookup resolves an id to its endpoint, or nil if unknown.
func (n *Net) lookup(id EndpointID) *Endpoint {
	if int(id) < len(n.eps) {
		return n.eps[id] // index 0 is nil, so id 0 resolves to unknown
	}
	return nil
}

// Lookup returns the endpoint with the given id.
func (n *Net) Lookup(id EndpointID) (*Endpoint, bool) {
	e := n.lookup(id)
	return e, e != nil
}

// Disconnect severs an endpoint: subsequent sends to or from it are
// dropped. Used for failure injection.
func (n *Net) Disconnect(id EndpointID) {
	if e := n.lookup(id); e != nil {
		e.disconnected = true
	}
}

// Reconnect re-attaches a severed endpoint (e.g. a rebooted
// Controller).
func (n *Net) Reconnect(id EndpointID) {
	if e := n.lookup(id); e != nil {
		e.disconnected = false
	}
}

// Connected reports whether Send between the two endpoints would go through.
func (n *Net) Connected(from, to EndpointID) bool {
	src, dst := n.lookup(from), n.lookup(to)
	return src != nil && dst != nil && !src.disconnected && !dst.disconnected
}

// account records a transfer in the counters.
func (n *Net) account(class wire.Class, bytes int, cross bool, rdma bool) {
	switch class {
	case wire.Data:
		n.stats.DataMsgs++
		n.stats.DataBytes += int64(bytes)
	default:
		n.stats.ControlMsgs++
		n.stats.ControlBytes += int64(bytes)
	}
	if cross {
		n.stats.CrossNodeMsgs++
		n.stats.CrossNodeBytes += int64(bytes)
		if class == wire.Data {
			n.stats.CrossNodeDataMsgs++
			n.stats.CrossNodeDataBytes += int64(bytes)
		} else {
			n.stats.CrossNodeCtrlMsgs++
		}
	}
	if rdma {
		n.stats.RDMAOps++
		n.stats.RDMABytes += int64(bytes)
	}
}

// transferTime computes when a message of nBytes sent now from src to
// dst finishes arriving, accounting for link serialization.
func (n *Net) transferTime(now sim.Time, src, dst Location, nBytes int) sim.Time {
	lat := n.prof.exit(src.Domain) + n.prof.entry(dst.Domain)
	if src.Node == dst.Node {
		lat += n.prof.NICTurn
		return n.links[src.Node].loc.send(now, nBytes) + lat
	}
	lat += n.prof.CrossNode
	return n.links[src.Node].up.send(now, nBytes) + lat
}

// Send serializes m, charges the fabric model, and schedules delivery
// of the encoded frame to dst; m is the caller's again when it returns.
// It does not block the caller (DMA semantics). It reports false if
// either endpoint is unknown or disconnected (the message is dropped,
// as on a severed channel).
//
// With the chaos layer installed (faults.go) a cross-node frame may
// additionally be lost, duplicated, or delayed — and Send still
// returns true in every one of those cases: in-flight loss is not
// observable at the sender, which is precisely what forces the
// retransmission protocols above the fabric.
//
//fractos:mustuse false means the destination endpoint is gone, the one delivery failure a sender can observe
//fractos:ordered
func (n *Net) Send(from, to EndpointID, m wire.Message) bool {
	src := n.lookup(from)
	dst := n.lookup(to)
	if src == nil || dst == nil || src.disconnected || dst.disconnected {
		return false
	}
	// What is charged to the wire, and what arrives, is the encoding.
	f := n.encode(from, dst, m)
	nBytes := len(f.Bytes())
	cross := src.Loc.Node != dst.Loc.Node

	// Chaos pipeline (cross-node frames only; see faults.go for the
	// fault model and determinism rules).
	var lost, dup bool
	var extra sim.Time
	if fs := n.faults; fs != nil && cross {
		fs.frames++
		cfg := &fs.cfg
		nth := fs.frames == cfg.Nth
		if fs.cut(src.Loc.Node, dst.Loc.Node) {
			lost = true
			fs.stats.Cut++
		} else {
			if cfg.Drop > 0 && fs.rng.Float64() < cfg.Drop || nth && !cfg.NthDup {
				lost = true
				fs.stats.Dropped++
			}
			dup = (cfg.Dup > 0 && fs.rng.Float64() < cfg.Dup || nth && cfg.NthDup) && !lost
			if cfg.Jitter > 0 {
				extra = sim.Time(fs.rng.Int63n(int64(cfg.Jitter)))
				if extra > 0 {
					fs.stats.Delayed++
				}
			}
		}
	}
	now := n.k.Now()
	done := n.transferTime(now, src.Loc, dst.Loc, nBytes)
	class := wire.ClassOf(m)
	n.account(class, nBytes, cross, false)
	if n.trace != nil {
		n.trace(TraceEvent{At: now, From: from, To: to, Type: m.WireType(), Bytes: nBytes, Class: class, Lost: lost})
	}
	if lost {
		// Switch loss: the fabric accounts the bytes on the wire but
		// drops the frame instead of tearing down the simulation. Upper
		// layers already tolerate loss — pending calls unwind through
		// retransmission or the peer-failure path (failure as
		// revocation).
		f.Release()
		return true
	}
	n.launch(f, done+extra-now)
	if dup {
		// The duplicate pays for the wire a second time and lands
		// strictly after the original (uplink serialization), in a frame
		// of its own: the two deliveries share no bytes.
		n.faults.stats.Duplicated++
		done2 := n.transferTime(now, src.Loc, dst.Loc, nBytes)
		n.account(class, nBytes, cross, false)
		if n.trace != nil {
			n.trace(TraceEvent{At: now, From: from, To: to, Type: m.WireType(), Bytes: nBytes, Class: class})
		}
		n.launch(n.encode(from, dst, m), done2+extra-now)
	}
	return true
}

// encode takes a Frame off the free list and fills it with m on its
// way from one endpoint to dst.
func (n *Net) encode(from EndpointID, dst *Endpoint, m wire.Message) *Frame {
	f := n.frames.Get()
	f.From, f.net, f.dst = from, n, dst
	wire.MarshalTo(&f.w, m)
	return f
}

// rdmaLatency is the fixed part of a one-sided RDMA op between two
// locations: initiator NIC costs plus wire plus passive-side NIC.
func (n *Net) rdmaLatency(initiator, passive Location) sim.Time {
	if initiator.Node == passive.Node {
		// Same-node DMA (e.g. controller to a co-located process).
		return n.prof.exit(initiator.Domain) + n.prof.NICTurn + n.prof.RDMARemote
	}
	return n.prof.exit(initiator.Domain) + n.prof.CrossNode + n.prof.RDMARemote
}

// Why a one-sided op could not start. The copy engine issues RDMA ops
// from its per-chunk steps, so refusing one formats nothing.
var (
	errUnknownEndpoint = errors.New("fabric: unknown endpoint")
	errDisconnected    = errors.New("fabric: endpoint disconnected")
	errPathCut         = errors.New("fabric: path cut between nodes")
)

// rangeError is an op addressing bytes outside a registered arena.
type rangeError struct {
	side   string // "source" or "dest"
	off, n int
	ep     *Endpoint
}

func (e rangeError) Error() string {
	return fmt.Sprintf("fabric: %s range [%d,%d) outside arena of %s", e.side, e.off, e.off+e.n, e.ep.Name)
}

// rdmaTransfer performs the byte movement and timing shared by the
// RDMA primitives, returning the completion time and the instant an op
// of the same kind, posted then, would put its bytes on the source's
// link just as this one's clear it. Data flows srcEp→dstEp.
func (n *Net) rdmaTransfer(initiator, srcEp, dstEp *Endpoint, srcOff, dstOff, nBytes int, extraRTT bool) (done, next sim.Time, err error) {
	if srcEp.disconnected || dstEp.disconnected || initiator.disconnected {
		return 0, 0, errDisconnected
	}
	// RDMA rides a reliable transport (hardware retransmit absorbs
	// probabilistic loss) but cannot cross a cut path: a down link or
	// partition between any involved pair fails the op outright, which
	// the copy engine maps to StatusAborted.
	if fs := n.faults; fs != nil {
		if fs.cut2(initiator.Loc.Node, srcEp.Loc.Node) ||
			fs.cut2(initiator.Loc.Node, dstEp.Loc.Node) ||
			fs.cut2(srcEp.Loc.Node, dstEp.Loc.Node) {
			return 0, 0, errPathCut
		}
	}
	// A negative n would book negative bytes on the link: as a uint64
	// it is huge, and fails.
	if !wire.Within(uint64(srcOff), uint64(nBytes), uint64(srcEp.arenaSize)) {
		return 0, 0, rangeError{"source", srcOff, nBytes, srcEp}
	}
	if !wire.Within(uint64(dstOff), uint64(nBytes), uint64(dstEp.arenaSize)) {
		return 0, 0, rangeError{"dest", dstOff, nBytes, dstEp}
	}
	now := n.k.Now()
	// Request leg (reads and third-party ops pay an extra half RTT to
	// reach the data source).
	lat := n.rdmaLatency(initiator.Loc, srcEp.Loc)
	if !extraRTT {
		lat = 0
	}
	// Data leg, then the completion notification back to the initiator.
	cross := srcEp.Loc.Node != dstEp.Loc.Node
	link, span := &n.links[srcEp.Loc.Node].loc, sim.Time(0)
	if cross {
		link, span = &n.links[srcEp.Loc.Node].up, n.prof.CrossNode
	}
	clear := link.reserve(now+lat, nBytes)
	done = clear + span + n.prof.RDMARemote + n.prof.RDMARemote + n.prof.entry(initiator.Loc.Domain)

	if nBytes > 0 {
		copy(dstEp.ArenaRange(dstOff, nBytes), srcEp.ArenaRange(srcOff, nBytes))
	}
	n.account(wire.Data, nBytes, cross, true)
	if n.trace != nil {
		n.trace(TraceEvent{At: now, From: srcEp.ID, To: dstEp.ID, RDMA: true, Bytes: nBytes, Class: wire.Data})
	}
	return done, clear - lat, nil
}

// rdmaStart issues one op — data flows src→dst, commanded by initiator
// — and schedules done for its modeled completion time, returning
// rdmaTransfer's next. An op that cannot start returns why and never
// fires done.
func (n *Net) rdmaStart(done sim.Callback, initiator, src, dst EndpointID, srcOff, dstOff, nBytes int, extraRTT bool) (sim.Time, error) {
	ini, se, de := n.lookup(initiator), n.lookup(src), n.lookup(dst)
	if ini == nil || se == nil || de == nil {
		return 0, errUnknownEndpoint
	}
	at, next, err := n.rdmaTransfer(ini, se, de, srcOff, dstOff, nBytes, extraRTT)
	if err != nil {
		return 0, err
	}
	n.k.AfterCall(at-n.k.Now(), done)
	return next, nil
}

// RDMAReadThen starts a one-sided read of nBytes from remote's arena at
// remoteOff into initiator's arena at localOff, and fires done in
// kernel context at the modeled completion time. It returns the
// instant a next read from remote, posted then, would put its bytes on
// remote's link just behind this one's: when they clear it, less the
// request leg. An op that cannot start — an endpoint unknown or
// disconnected, the path cut, a range outside its arena — returns the
// error instead, and done never fires. The bytes move when the op
// starts; a completion is never an error.
func (n *Net) RDMAReadThen(done sim.Callback, initiator EndpointID, localOff int, remote EndpointID, remoteOff, nBytes int) (sim.Time, error) {
	return n.rdmaStart(done, initiator, remote, initiator, remoteOff, localOff, nBytes, true)
}

// RDMAWriteAt starts a one-sided write of nBytes from initiator's arena
// at localOff into remote's arena at remoteOff, and returns the modeled
// instant it completes. It schedules nothing: the link is booked and
// the bytes move when the op starts, so its completion is known then.
// An op that cannot start returns the error, as RDMAReadThen's does.
func (n *Net) RDMAWriteAt(initiator EndpointID, localOff int, remote EndpointID, remoteOff, nBytes int) (sim.Time, error) {
	ini, de := n.lookup(initiator), n.lookup(remote)
	if ini == nil || de == nil {
		return 0, errUnknownEndpoint
	}
	done, _, err := n.rdmaTransfer(ini, ini, de, localOff, remoteOff, nBytes, false)
	return done, err
}

// RDMACopyThen is RDMAReadThen for a third-party transfer: the
// initiator commands src's NIC to move bytes directly into dst's arena
// ("HW copies" in Figure 5 — hardware support the paper models but the
// testbed NICs lack).
func (n *Net) RDMACopyThen(done sim.Callback, initiator EndpointID, src EndpointID, srcOff int, dst EndpointID, dstOff, nBytes int) error {
	_, err := n.rdmaStart(done, initiator, src, dst, srcOff, dstOff, nBytes, true)
	return err
}

// RDMARead is RDMAReadThen for a task: the returned future resolves
// with nBytes at the completion time, or at once with the error of an
// op that could not start.
func (n *Net) RDMARead(initiator EndpointID, localOff int, remote EndpointID, remoteOff, nBytes int) *sim.Future[int] {
	f := sim.NewFuture[int]()
	if _, err := n.RDMAReadThen(f.Due(nBytes), initiator, localOff, remote, remoteOff, nBytes); err != nil {
		f.Fail(err)
	}
	return f
}
