package core

import (
	"fmt"
	"slices"

	"fractos/internal/assert"
	"fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Controller is one trusted FractOS Controller instance. It owns the
// objects registered with it, maintains the capability spaces of the
// Processes it manages, and exchanges the inter-Controller protocol
// with its peers.
//
// A Controller is a serial run-to-completion server (§4's polling
// loop): the fabric hands it frames in kernel context (Deliver), each
// occupies it for its Perf-table processing time, then its handler runs
// (Fire). No handler blocks: multi-round operations park a continuation
// in the pending table, and a memory copy is a record stepped by its own
// events (copyOp). The Controller runs no task at all.
//
// A frame is decoded when it reaches the head of the queue, through the
// Controller's own wire.Decoder, and its handler works on that borrowed
// message: it is gone at the next decode, so whatever a handler parks
// past its own return — a forwarded call's arguments, a queued
// descriptor, a cached reply — it copies into storage the parking
// record owns (keepImms, keepCaps, remember).
type Controller struct {
	id    cap.ControllerID
	cfg   Config
	perf  Perf // DefaultPerf: the operation costs cost() charges
	k     *sim.Kernel
	net   *fabric.Net
	ep    *fabric.Endpoint
	epoch cap.Epoch

	tree  *cap.Tree
	procs map[cap.ProcID]*procState
	byEP  map[fabric.EndpointID]*procState

	peers   map[cap.ControllerID]*peerState
	peerEPs map[fabric.EndpointID]*peerState // the same records by endpoint: the sender check on the receive path
	peerIDs []cap.ControllerID               // their ids, ascending: broadcasts must not publish map order

	pending   map[uint64]*pendingCall
	nextToken uint64
	calls     sim.FreeList[pendingCall] // recycled pending-call records

	// The copy engine (copy.go): a copy stages data through a pair of
	// bounce chunks, so the DefaultBouncePairs pairs of the arena bound
	// how many transfer at once; the rest wait their turn in copyWait.
	bounceFree []bounceChunk        // free bounce chunks
	copyWait   []*copyOp            // copies waiting for a bounce pair, oldest first
	copyOps    sim.FreeList[copyOp] // recycled copy records

	// Revocation-cleanup batch: refs and revoked stubs accumulated by
	// processRevocations at one virtual instant, flushed as a single
	// coalesced CtrlCleanup broadcast per peer (see flushCleanup).
	cleanupRefs  []cap.Ref
	cleanupStubs []*cap.Node
	cleanupArmed bool
	batches      sim.FreeList[cleanupBatch] // recycled batches, which keep their lists' storage
	dead         map[cap.Ref]bool           // purge's scratch

	// Per-message scratch. Net.Send encodes its argument before it
	// returns and retains nothing, and handlers never yield between
	// filling one of these and sending it, so the messages on the
	// per-request path are built in place instead of allocated: the
	// syscall completion, the forwarded invocation (frame), the owner's
	// answers (ask, dispatchPeer), and the request_receive descriptor
	// with the buffers an invocation merges its arguments in
	// (deliverInvoke).
	txCompletion wire.Completion
	txInvoke     wire.CtrlInvoke
	txValidate   wire.CtrlValidate
	txAck        wire.CtrlAck
	txValInfo    wire.CtrlValInfo
	txDeliver    wire.Deliver
	immScratch   immBuf         // preset + invoke-time immediates
	argScratch   []wire.CapXfer // a syscall's resolved capability arguments
	capScratch   []wire.CapXfer // preset + invoke-time capability arguments

	rxQueue []*fabric.Frame // received, oldest first; the head is in service
	rxMsg   wire.Message    // the head, decoded: borrowed from dec until Fire has dispatched it
	dec     *wire.Decoder

	metrics Metrics
	down    bool
}

// dedupCache is the receiver half of the at-most-once RPC contract for
// one peer (docs/FAULTS.md): the replies already sent to it, so a
// retransmitted (or fabric-duplicated) request is answered from here
// instead of being re-executed. Tokens are minted monotonically per
// sender, so a hit is always a repeat of a request whose side effects
// already happened. Replies are kept by value in a ring of dedupCap
// slots, made once and overwritten oldest first, found through a
// pointer-free token→slot index: keeping a reply allocates nothing.
type dedupCache struct {
	index map[uint64]int32 // token → ring slot
	ring  []dedupSlot
	head  int // the slot to fill next: the oldest once the index is full
}

// dedupSlot is one cached reply: ack, or val when kind says so.
type dedupSlot struct {
	token uint64
	kind  wire.Type
	ack   wire.CtrlAck
	val   wire.CtrlValInfo
}

// dedupCap bounds cached replies per peer. A request is retransmitted
// only until its caller's deadline (RPCBudget after the first send),
// and the first resend follows the original by one RTO — tens of µs, a
// handful of tokens behind. Eviction could break the at-most-once
// contract only if the same sender had dedupCap newer calls answered
// here while every resend of the older one (one per backoff step, then
// one per rtoCeiling) was lost in a row, which the deadline makes a
// bounded run. TestChaosRetransmitSweep checks the contract at 20 %
// loss.
const dedupCap = 512

// procState is the Controller-side record of one managed Process.
type procState struct {
	id     cap.ProcID
	ep     *fabric.Endpoint
	space  *cap.Space
	failed bool

	window      int // remaining delivery credits (congestion control)
	deliverSeq  uint64
	outstanding map[uint64]struct{}
	queue       []*wire.Deliver // deliveries awaiting a window credit, oldest first
}

// New creates a Controller with the given identity and configuration,
// attached to the fabric at cfg.Loc and serving from then on.
func New(k *sim.Kernel, net *fabric.Net, id cap.ControllerID, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		id:      id,
		cfg:     cfg,
		perf:    DefaultPerf(),
		k:       k,
		net:     net,
		epoch:   1,
		tree:    cap.NewTree(),
		procs:   make(map[cap.ProcID]*procState),
		byEP:    make(map[fabric.EndpointID]*procState),
		peers:   make(map[cap.ControllerID]*peerState),
		peerEPs: make(map[fabric.EndpointID]*peerState),
		pending: make(map[uint64]*pendingCall),
		dead:    make(map[cap.Ref]bool),
		dec:     wire.NewDecoder(),
	}
	c.ep = net.AttachHandler(fmt.Sprintf("ctrl%d@%v", id, cfg.Loc), cfg.Loc, DefaultBouncePairs*2*DefaultBounceChunk, c)
	k.Track(fmt.Sprintf("controller %d pendingCall", id), &c.calls)
	k.Track(fmt.Sprintf("controller %d copyOp", id), &c.copyOps)
	k.Track(fmt.Sprintf("controller %d delivery queue", id), (*deliveryQueue)(c))
	// Descending order: popBounce takes from the end, so chunks are
	// handed out lowest-offset first and a lightly loaded Controller
	// keeps reusing the front of its bounce arena. Combined with the
	// fabric's prefix-lazy arena materialization this keeps the 256 KiB
	// bounce pool's memory cost proportional to actual copy concurrency.
	for i := DefaultBouncePairs*2 - 1; i >= 0; i-- {
		c.bounceFree = append(c.bounceFree, bounceChunk{off: i * DefaultBounceChunk})
	}
	return c
}

// ID returns the Controller's address.
func (c *Controller) ID() cap.ControllerID { return c.id }

// Epoch returns the Controller's current reboot counter.
func (c *Controller) Epoch() cap.Epoch { return c.epoch }

// EndpointID returns the Controller's fabric endpoint.
func (c *Controller) EndpointID() fabric.EndpointID { return c.ep.ID }

// Loc returns where the Controller is deployed.
func (c *Controller) Loc() fabric.Location { return c.cfg.Loc }

// AddPeer registers another Controller in the deployment directory.
func (c *Controller) AddPeer(id cap.ControllerID, ep fabric.EndpointID) {
	if _, ok := c.peers[id]; !ok {
		c.peerIDs = append(c.peerIDs, id)
		slices.Sort(c.peerIDs)
	}
	p := &peerState{ep: ep, epoch: 1}
	c.peers[id], c.peerEPs[ep] = p, p
}

// AttachProcess registers a Process to be managed by this Controller.
// The Process's endpoint (and RDMA arena) lives at loc, which need not
// equal the Controller's own location: §6 evaluates co-located,
// SmartNIC, and remote ("Shared HAL") deployments. rx (libfractos)
// receives its frames; nil leaves them in the endpoint's Inbox.
func (c *Controller) AttachProcess(pid cap.ProcID, name string, loc fabric.Location, arenaSize int, rx fabric.Handler) *fabric.Endpoint {
	ep := c.net.AttachHandler(name, loc, arenaSize, rx)
	ps := &procState{
		id:          pid,
		ep:          ep,
		space:       cap.NewSpace(),
		window:      c.cfg.Window,
		outstanding: make(map[uint64]struct{}),
	}
	c.procs[pid] = ps
	c.byEP[ep.ID] = ps
	return ep
}

// EntryOf exposes a Process's capability-space entry. It is a
// TCB-internal hook used by the deployment bootstrap (the paper's
// trusted key/value service) and by tests.
func (c *Controller) EntryOf(pid cap.ProcID, cid cap.CapID) (cap.Entry, bool) {
	ps, ok := c.procs[pid]
	if !ok {
		return cap.Entry{}, false
	}
	return ps.space.Lookup(cid)
}

// GrantEntry installs an entry directly into a managed Process's
// capability space — the bootstrap path by which the operator hands a
// new Process its initial capabilities.
func (c *Controller) GrantEntry(pid cap.ProcID, e cap.Entry) (cap.CapID, bool) {
	ps, ok := c.procs[pid]
	if !ok || ps.failed {
		return cap.NilCap, false
	}
	cid, st := c.install(ps, e)
	return cid, st == wire.StatusOK
}

// install adds an entry to a Process's capability space, enforcing the
// per-Process quota (§4).
func (c *Controller) install(ps *procState, e cap.Entry) (cap.CapID, wire.Status) {
	if q := c.cfg.CapQuota; q > 0 && ps.space.Len() >= q {
		c.metrics.QuotaRejected++
		return cap.NilCap, wire.StatusQuota
	}
	cid := ps.space.Install(e)
	if cid == cap.NilCap {
		// The 16M-slot cid index range is exhausted: report it as the
		// quota it effectively is.
		c.metrics.QuotaRejected++
		return cap.NilCap, wire.StatusQuota
	}
	return cid, wire.StatusOK
}

// grant completes a syscall that made an object by installing the
// caller's entry for it. An entry the quota refuses leaves no object
// behind: one of ours is discarded at once, as nothing else names it,
// and a peer's is lease-revoked at its owner.
func (c *Controller) grant(ps *procState, tok uint64, e cap.Entry, aux uint64) {
	cid, st := c.install(ps, e)
	if st == wire.StatusOK {
		c.complete(ps, tok, st, cid, aux)
		return
	}
	if e.Ref.Ctrl == c.id {
		c.discardObject(e.Ref.Obj)
	} else {
		c.revokeLease(e.Ref)
	}
	c.complete(ps, tok, st, cap.NilCap, 0)
}

// ObjectCount reports live objects owned by this Controller (for
// tests and resource accounting).
func (c *Controller) ObjectCount() int { return c.tree.LiveLen() }

// Serves reports whether the Controller manages pid and has not failed
// it: a Process it has failed — or lost in a crash — gets no
// completion for a syscall it posted.
func (c *Controller) Serves(pid cap.ProcID) bool {
	ps, ok := c.procs[pid]
	return ok && !ps.failed
}

// DeliveryState reports a managed Process's congestion window: credits
// left, deliveries awaiting their DeliverDone, and those queued for one.
func (c *Controller) DeliveryState(pid cap.ProcID) (window, outstanding, queued int) {
	ps := c.procs[pid]
	return ps.window, len(ps.outstanding), len(ps.queue)
}

// deliveryQueue is the Controller as the end-of-run audit sees it
// (Kernel.Track): at quiescence a delivery queued behind the window of a
// Process it serves is one that Process is never sent.
type deliveryQueue Controller

func (q *deliveryQueue) Lent() (n int) {
	for _, ps := range q.procs {
		if !ps.failed {
			n += len(ps.queue)
		}
	}
	return n
}

// Deliver implements fabric.Handler: a frame joins the receive queue;
// an idle Controller starts on it at once, a crashed one drops it.
func (c *Controller) Deliver(f *fabric.Frame) {
	if c.down {
		f.Release()
		return
	}
	c.rxQueue = append(c.rxQueue, f) // queue growth is amortized: popFront shifts in place, so the backing array is reused
	if len(c.rxQueue) == 1 {
		c.serveHead()
	}
}

// serveHead starts on the frame at the head of the queue: decode it —
// its processing time depends on its type and capability count, and
// Fire dispatches the same borrowed message — and occupy the Controller
// for that long. A frame that does not decode is dropped unserved, like
// line corruption.
func (c *Controller) serveHead() {
	for len(c.rxQueue) > 0 {
		m, err := c.dec.Decode(c.rxQueue[0].Bytes())
		if err == nil {
			c.rxMsg = m
			c.k.AfterCall(c.cost(m), c)
			return
		}
		var f *fabric.Frame
		f, c.rxQueue = popFront(c.rxQueue)
		f.Release()
	}
}

// Fire implements sim.Callback: the head's processing time is over, so
// its handler runs, and the frame the message borrowed from goes back
// to the fabric. A crash meanwhile loses what queued behind it: never
// served, even after Reboot.
func (c *Controller) Fire() {
	var f *fabric.Frame
	f, c.rxQueue = popFront(c.rxQueue)
	m := c.rxMsg
	c.rxMsg = nil
	c.dispatch(f.From, m)
	f.Release()
	if c.down {
		for _, q := range c.rxQueue {
			q.Release()
		}
		clear(c.rxQueue)
		c.rxQueue = c.rxQueue[:0]
		return
	}
	c.serveHead()
}

// popFront takes the head off a queue by shifting in place and clearing
// the vacated slot. Re-slicing q[1:] instead drifts through the backing
// array: under a sustained backlog it regrows without bound and pins
// everything that was ever queued.
func popFront[T any](q []T) (head T, rest []T) {
	head = q[0]
	n := copy(q, q[1:])
	clear(q[n:])
	return head, q[:n]
}

// cost models the Controller's processing time for a message,
// according to the deployment domain (host CPU vs SmartNIC).
func (c *Controller) cost(m wire.Message) sim.Time {
	dom := c.cfg.Loc.Domain
	p := &c.perf
	switch m := m.(type) {
	case *wire.MemCreate, *wire.MemDiminish, *wire.CapRevtree,
		*wire.CapRevoke, *wire.CapDrop, *wire.MonitorDelegate, *wire.MonitorReceive:
		return p.CapOp.On(dom)
	case *wire.MemCopy:
		return p.MemOp.On(dom)
	case *wire.ReqCreate:
		return p.ReqHandle.On(dom) + sim.Time(len(m.Caps))*p.PerCap.On(dom)
	case *wire.ReqInvoke:
		return p.ReqHandle.On(dom) + sim.Time(len(m.Caps))*p.PerCap.On(dom)
	case *wire.CtrlInvoke:
		return p.ReqHandle.On(dom) + p.CtrlSerial.On(dom) + sim.Time(len(m.Caps))*p.PerCap.On(dom)
	case *wire.CtrlDeriveReq:
		return p.CapOp.On(dom) + p.CtrlSerial.On(dom) + sim.Time(len(m.Caps))*p.PerCap.On(dom)
	case *wire.CtrlDeriveMem, *wire.CtrlRevtree, *wire.CtrlRevoke, *wire.CtrlWatch:
		return p.CapOp.On(dom) + p.CtrlSerial.On(dom)
	default:
		return p.Null.On(dom) // null/done/bye syscalls, validation, acks, cleanup, notifications
	}
}

// dispatch runs the handler of a received message. m is borrowed from
// the Controller's Decoder: it is valid until this returns.
func (c *Controller) dispatch(from fabric.EndpointID, m wire.Message) {
	// Processes are untrusted (§3.2): anything arriving from a managed
	// Process is a syscall, never Controller protocol — otherwise a
	// malicious Process could forge acks for our pending calls or
	// inject derivations.
	if ps, fromProc := c.byEP[from]; fromProc {
		if ps.failed {
			return
		}
		c.dispatchSyscall(ps, m)
		return
	}

	// Health probes are answered for anyone who can reach us — the
	// monitoring service (services.NodeWatch) is not a peer Controller
	// and has no capability state here. A crashed Controller never
	// answers: its endpoint is severed and Fire discards what was
	// queued, exactly the silence the failure detector interprets.
	if ping, ok := m.(*wire.WatchPing); ok {
		c.send(from, &wire.WatchPong{Seq: ping.Seq, Ctrl: c.id, Epoch: c.epoch})
		return
	}

	// Only pre-deployed peer Controllers speak the Controller
	// protocol; traffic from any other endpoint is dropped.
	p := c.peerEPs[from]
	if p == nil {
		return
	}

	// Responses to our own inter-Controller calls.
	switch m := m.(type) {
	case *wire.CtrlAck:
		c.answered(m.Token, m)
		return
	case *wire.CtrlValInfo:
		c.answered(m.Token, m)
		return
	}
	c.dispatchPeer(p, m)
}

func (c *Controller) dispatchSyscall(ps *procState, m wire.Message) {
	switch m := m.(type) {
	case *wire.Null:
		c.metrics.NullOps++
		c.complete(ps, m.Token, wire.StatusOK, cap.NilCap, 0)
	case *wire.MemCreate:
		c.metrics.MemOps++
		c.handleMemCreate(ps, m)
	case *wire.MemDiminish:
		c.metrics.MemOps++
		c.handleMemDiminish(ps, m)
	case *wire.MemCopy:
		c.metrics.Copies++
		c.handleMemCopy(ps, m)
	case *wire.ReqCreate:
		c.metrics.ReqCreates++
		c.handleReqCreate(ps, m)
	case *wire.ReqInvoke:
		c.metrics.Invokes++
		c.handleReqInvoke(ps, m)
	case *wire.CapRevtree:
		c.metrics.CapOps++
		c.handleCapRevtree(ps, m)
	case *wire.CapRevoke:
		c.metrics.CapOps++
		c.handleCapRevoke(ps, m)
	case *wire.CapDrop:
		c.metrics.CapOps++
		c.handleCapDrop(ps, m)
	case *wire.MonitorDelegate:
		c.metrics.CapOps++
		c.handleMonitorDelegate(ps, m)
	case *wire.MonitorReceive:
		c.metrics.CapOps++
		c.handleMonitorReceive(ps, m)
	case *wire.DeliverDone:
		c.handleDeliverDone(ps, m)
	case *wire.ProcBye:
		c.procFailed(ps)
	default:
		// Unknown or disallowed (e.g. a Process sending Controller
		// protocol): ignore. Processes are untrusted (§3.2).
	}
}

// peerToken extracts the request token from a token-carrying peer
// request (the messages answered through reply and thus subject to
// at-most-once dedup). ok is false for fire-and-forget peer traffic:
// CtrlEpoch, which is idempotent (an epoch only grows), and CtrlNotify,
// which is not: a duplicate reaches the watcher as a second MonitorCB.
// Only monitor_receive callbacks travel in one, and libfractos runs
// such a callback once — its object can only be revoked once.
func peerToken(m wire.Message) (uint64, bool) {
	switch m := m.(type) {
	case *wire.CtrlDeriveMem:
		return m.Token, true
	case *wire.CtrlDeriveReq:
		return m.Token, true
	case *wire.CtrlRevtree:
		return m.Token, true
	case *wire.CtrlRevoke:
		return m.Token, true
	case *wire.CtrlValidate:
		return m.Token, true
	case *wire.CtrlInvoke:
		return m.Token, true
	case *wire.CtrlCleanup:
		return m.Token, true
	case *wire.CtrlWatch:
		return m.Token, true
	}
	return 0, false
}

func (c *Controller) dispatchPeer(p *peerState, m wire.Message) {
	// At-most-once execution: a token we have already answered for
	// this peer is a retransmission (or a fabric duplicate) — its side
	// effects must not run again. Re-send the cached reply: the
	// original may have been lost on the way back.
	from := p.ep
	if tok, ok := peerToken(m); ok {
		if cached := p.dedup.lookup(tok); cached != nil {
			c.metrics.DedupHits++
			c.send(from, cached)
			return
		}
	}
	// The owner-side steps are the ones ask runs for a question of our
	// own Processes.
	switch m := m.(type) {
	case *wire.CtrlDeriveMem:
		c.ack(from, m.Token, c.ownDeriveMem(m.From, m.Offset, m.Size, m.Drop))
	case *wire.CtrlDeriveReq:
		c.ack(from, m.Token, c.ownDeriveReq(m.From, m.Imms, m.Caps))
	case *wire.CtrlRevtree:
		c.ack(from, m.Token, c.ownRevtree(m.From))
	case *wire.CtrlRevoke:
		c.ack(from, m.Token, wire.CtrlAck{Status: c.revokeLocal(m.From)})
	case *wire.CtrlValidate:
		c.txValInfo = c.ownLocate(m.Ref, m.Need)
		c.txValInfo.Token = m.Token
		c.reply(from, &c.txValInfo)
	case *wire.CtrlInvoke:
		// deliverInvoke is not idempotent (it delivers a descriptor to
		// the provider): the at-most-once cache above answers a
		// retransmission without re-delivering.
		c.metrics.Invokes++
		st := c.deliverInvoke(m.Ref, m.Imms, m.Caps)
		if st != wire.StatusOK {
			c.metrics.InvokesRefused++
		}
		// Token 0 waits for nothing, nor, on a reliable fabric, an
		// accepted invocation its reply answers.
		if m.Token != 0 && (st != wire.StatusOK || c.net.Lossy() || !m.Replied) {
			c.ack(from, m.Token, wire.CtrlAck{Status: st})
		}
	case *wire.CtrlCleanup:
		c.peerCleanup(from, m)
	case *wire.CtrlWatch:
		c.ack(from, m.Token, c.ownWatch(m.Ref, cap.Watcher{Proc: m.WatcherProc, Ctrl: m.WatcherCtrl, Callback: m.Callback}))
	case *wire.CtrlNotify:
		c.notifyProc(m.Proc, m.Callback, m.Kind)
	case *wire.CtrlEpoch:
		c.peerEpoch(m)
	default:
		// Ignore unknown peer traffic.
	}
}

// complete sends a syscall completion back to the Process; a syscall
// under token 0 (Delivery.Reply's) waits for none. A false Send means
// the Process's endpoint was severed after the failed check — the
// failure path will revoke its state, so the lost completion is correct
// behavior, not silent loss.
//
//fractos:ordered
func (c *Controller) complete(ps *procState, token uint64, st wire.Status, cid cap.CapID, aux uint64) {
	if ps.failed || token == 0 {
		return
	}
	c.txCompletion = wire.Completion{Token: token, Status: st, Cid: cid, Aux: aux}
	c.send(ps.ep.ID, &c.txCompletion)
}

// ack answers the peer request under token with a CtrlAck, built in
// place.
func (c *Controller) ack(from fabric.EndpointID, token uint64, a wire.CtrlAck) {
	c.txAck = a
	c.txAck.Token = token
	c.reply(from, &c.txAck)
}

// reply answers a token-carrying peer request from the peer at from;
// every peer handler answers through here. While dedupArmed the peer's
// at-most-once cache keeps a copy of m (txAck or txValInfo), so a
// retransmission is answered identically without re-execution. On a
// reliable fabric with retransmission disarmed no token can repeat, so
// the fault-free hot path keeps nothing.
func (c *Controller) reply(from fabric.EndpointID, m wire.Message) {
	if c.dedupArmed() {
		c.peerEPs[from].dedup.remember(m) // the index and ring are made at most once per peer incarnation
	}
	c.send(from, m) // severed, the peer is crashing: its epoch announcement aborts the call
}

// send puts m on the fabric to the endpoint to. A send to a severed
// endpoint — a Controller crashing, a Process failing — is counted, not
// silent: that failure's own path unwinds what the message was for.
func (c *Controller) send(to fabric.EndpointID, m wire.Message) {
	if !c.net.Send(c.ep.ID, to, m) {
		c.metrics.SendFailed++
	}
}

// remember keeps a copy of a reply, overwriting the oldest once the
// ring is full. The first reply to a token stands.
func (d *dedupCache) remember(m wire.Message) {
	var s dedupSlot
	switch m := m.(type) {
	case *wire.CtrlAck:
		s = dedupSlot{token: m.Token, kind: wire.TCtrlAck, ack: *m}
	case *wire.CtrlValInfo:
		s = dedupSlot{token: m.Token, kind: wire.TCtrlValInfo, val: *m}
	default:
		assert.That(false, "core: reply of type %T has no cached form", m)
	}
	if _, exists := d.index[s.token]; exists {
		return
	}
	if d.ring == nil {
		d.index, d.ring = make(map[uint64]int32, dedupCap), make([]dedupSlot, dedupCap)
	}
	if len(d.index) == dedupCap {
		delete(d.index, d.ring[d.head].token)
	}
	d.index[s.token], d.ring[d.head] = int32(d.head), s
	d.head = (d.head + 1) % dedupCap
}

// lookup returns the reply cached for a token, borrowed from the ring
// until the next remember, or nil.
func (d *dedupCache) lookup(token uint64) wire.Message {
	i, hit := d.index[token]
	if !hit {
		return nil
	}
	if s := &d.ring[i]; s.kind == wire.TCtrlValInfo {
		return &s.val
	}
	return &d.ring[i].ack
}

// reset forgets every cached reply and keeps the storage: replies
// minted for one incarnation of either end must never answer the next.
func (d *dedupCache) reset() {
	clear(d.index)
	d.head = 0
}

// dedupArmed reports whether the at-most-once reply cache must be
// maintained: only a lossy fabric repeats a token, by retransmission
// or duplication.
func (c *Controller) dedupArmed() bool {
	return c.net.Lossy()
}

// ref builds a Ref for an object owned by this Controller.
func (c *Controller) ref(obj cap.ObjectID) cap.Ref {
	return cap.Ref{Ctrl: c.id, Obj: obj, Epoch: c.epoch}
}

// Validate is the owner-side capability check on the syscall hot
// path: one epoch-fenced O(1) slab probe that answers "is this Ref a
// live object I own, conveying these rights" without allocating. The
// fast path is a single fused condition — slab probe, revocation flag,
// ownership, epoch fence — and, for Memory objects when need != 0, the
// rights mask; every failing case drops to validateMiss for precise
// status classification off the hot path. Every use of a capability
// funnels through here (§3.5: each use contacts the owner), so this
// is the operation the cap-scale experiment measures.
func (c *Controller) Validate(ref cap.Ref, need cap.Rights) (*cap.Node, wire.Status) {
	n := c.tree.Probe(ref.Obj)
	if n != nil && !n.Revoked && ref.Ctrl == c.id && ref.Epoch == c.epoch {
		if need != 0 {
			if mo, ok := n.Payload.(*memObject); ok && !mo.rights.Has(need) {
				return nil, wire.StatusPerm
			}
		}
		return n, wire.StatusOK
	}
	return nil, c.validateMiss(ref)
}

// validateMiss classifies a failed validation: wrong owner, stale
// epoch, or revoked/unknown object (unknown IDs report StatusRevoked
// too — a Ref that never existed here is indistinguishable from one
// whose stub was already erased, and must not leak more).
func (c *Controller) validateMiss(ref cap.Ref) wire.Status {
	if ref.Ctrl != c.id {
		return wire.StatusUnknownObj
	}
	if ref.Epoch != c.epoch {
		return wire.StatusStale
	}
	return wire.StatusRevoked
}

// resolveOwned returns the live node for a Ref owned by this
// Controller, checking epoch and revocation.
//
//fractos:cap-deref
func (c *Controller) resolveOwned(ref cap.Ref) (*cap.Node, wire.Status) {
	return c.Validate(ref, 0)
}

// resolveEntry fetches a live capability-space entry with required
// rights and kind.
//
//fractos:cap-resolve
func (c *Controller) resolveEntry(ps *procState, cid cap.CapID, kind cap.Kind, need cap.Rights) (cap.Entry, wire.Status) {
	e, ok := ps.space.Lookup(cid)
	if !ok {
		return cap.Entry{}, wire.StatusNoCap
	}
	if kind != 0 && e.Kind != kind {
		return e, wire.StatusKind
	}
	if !e.Rights.Has(need) {
		return e, wire.StatusPerm
	}
	// Eager stale-epoch detection (§3.6): if we know the owner
	// rebooted past this entry's epoch, it is implicitly revoked.
	if e.Ref.Ctrl == c.id {
		if e.Ref.Epoch != c.epoch {
			c.metrics.StaleRejected++
			return e, wire.StatusStale
		}
	} else if p, ok := c.peers[e.Ref.Ctrl]; ok && e.Ref.Epoch < p.epoch {
		c.metrics.StaleRejected++
		return e, wire.StatusStale
	}
	return e, wire.StatusOK
}

// resolveCapSlots turns syscall capability arguments (cids) into
// transferable capability arguments, enforcing the Grant right. The
// result lives in the Controller's argument scratch: it is valid until
// the next syscall resolves its arguments, and a caller that parks it
// (a forwarded call awaiting retransmission) copies it out.
//
//fractos:cap-resolve
func (c *Controller) resolveCapSlots(ps *procState, slots []wire.CapSlot) ([]wire.CapXfer, wire.Status) {
	args := c.argScratch[:0]
	for _, s := range slots {
		e, st := c.resolveEntry(ps, s.Cid, 0, cap.Grant)
		if st != wire.StatusOK {
			return nil, st
		}
		arg := wire.CapXfer{Slot: s.Slot, Ref: e.Ref, Kind: e.Kind, Rights: e.Rights, Size: e.Size, Once: e.Once, Relayed: e.Once}
		// Delegating a monitored capability creates a separately
		// revocable child at the owner so the delegator can observe
		// its destruction (§3.6). Monitored entries only exist at the
		// owner's own Controller (monitor_delegate is owner-local, and
		// Grant clears the mark), so this derivation is always local.
		if e.Monitored {
			child, st := c.deriveDelegatee(e.Ref)
			if st != wire.StatusOK {
				return nil, st
			}
			arg.Ref = child
			arg.Leased = true
		}
		args = append(args, arg)
	}
	c.argScratch = args[:0]
	return args, wire.StatusOK
}

// deriveDelegatee creates a monitor_delegatee child of a monitored
// object.
//
//fractos:cap-deref
func (c *Controller) deriveDelegatee(ref cap.Ref) (cap.Ref, wire.Status) {
	n, st := c.resolveOwned(ref)
	if st != wire.StatusOK {
		return cap.Ref{}, st
	}
	child := c.tree.Derive(n.ID, n.Payload)
	if child == nil {
		return cap.Ref{}, wire.StatusRevoked
	}
	child.MonitorDelegatee = true
	n.DelegateeCount++
	return c.ref(child.ID), wire.StatusOK
}

// discardObject rolls back a freshly created object that was never
// exposed through any capability (e.g. when the creating install hits
// the quota): revoke and erase it without cleanup traffic.
func (c *Controller) discardObject(id cap.ObjectID) {
	revoked := c.tree.Revoke(id)
	for i := len(revoked) - 1; i >= 0; i-- {
		c.tree.Remove(revoked[i].ID)
	}
}
