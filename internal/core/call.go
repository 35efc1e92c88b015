package core

import (
	"slices"

	"fractos/internal/assert"
	"fractos/internal/cap"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// callKind names what a call asks of an object's owner and what happens
// here when the answer arrives. It is the continuation of a multi-round
// operation in data form: frame rebuilds the request message from the
// record, finish runs the second half of the operation on the reply.
type callKind uint8

const (
	callInvoke      callKind = iota + 1 // request_invoke of a Request
	callDeriveMem                       // memory_diminish of a Memory object
	callDeriveReq                       // request_create refining a Request
	callRevtree                         // cap_create_revtree under an object
	callRevoke                          // cap_revoke of an object
	callWatch                           // monitor_receive on an object
	callLeaseRevoke                     // an object no live holder names: revoke, nobody waits
	callCleanup                         // revocation-cleanup broadcast to one peer
	callValidate                        // memory_copy locating a Memory object
)

// pendingCall is a question to an object's owner awaiting its answer: a
// pooled record from newCall until retire. ask answers one to this
// Controller at once; one to a peer is parked in Controller.pending
// under the call's token from call until retire. On a lossy fabric the
// record is also the target of its own retransmission timer — one
// event, re-armed per attempt and stopped when the call retires — and
// sent/rto/attempt drive the resends of frame(pc) under the same token.
//
// The fields past entry are the union of what the kinds need; each
// call site fills the ones its kind reads. imms (with immData, the
// bytes its elements point into) and caps are storage the record owns
// and recycles: the syscall message they are copied from is borrowed
// and gone when its handler returns, the record lives until the owner
// answers and rebuilds the request from them on every resend. They
// start in the record's own arrays, sized for a routed call.
type pendingCall struct {
	kind  callKind
	c     *Controller
	token uint64 // the key in c.pending, from call on

	// Retransmission state: when the call was first sent — its answer
	// a round-trip sample, its deadline RPCBudget later — and, on a
	// lossy fabric, the timeout of the current attempt (doubling from
	// the peer's RTO up to rtoCeiling), how many resends went out, and
	// the pending timeout.
	sent    sim.Time
	rto     sim.Time
	attempt int
	timer   sim.Timer

	// The syscall to complete (kinds callInvoke through callWatch).
	ps  *procState
	tok uint64

	// entry.Ref is the object at the owner the call is about (for
	// callCleanup just the owner: only Ref.Ctrl is set), so Ref.Ctrl is
	// the peer the call is addressed to. For the derivations the rest
	// of entry is the capability to install once the owner has named
	// the new object.
	entry    cap.Entry
	cid      cap.CapID      // callRevoke: the caller's entry to drop afterwards
	oneWay   bool           // callInvoke: nobody waits for the outcome, so no answer is asked for
	reply    cap.Ref        // callInvoke: the reply Request armed to answer it (CtrlInvoke.Replied), if any
	imms     []wire.ImmArg  // callInvoke, callDeriveReq: refinements
	immData  []byte         // the bytes of imms, back to back
	caps     []wire.CapXfer // callInvoke, callDeriveReq: resolved capability arguments
	off      uint64         // callDeriveMem: window offset
	size     uint64         // callDeriveMem: window size
	rights   cap.Rights     // callDeriveMem: rights to drop; callValidate: rights needed
	callback uint64         // callWatch: the watcher's callback id

	batch *cleanupBatch // callCleanup
	copy  *copyOp       // callValidate: the memory_copy to resume

	immArgs  [2]wire.ImmArg
	immBytes [16]byte
	capArgs  [2]wire.CapXfer
}

// cleanupBatch is one coalesced revocation-cleanup broadcast: the refs
// every peer is asked to purge, and the revoked stubs erased once the
// last peer has answered (or been observed dead). Batches and their
// lists are recycled (Controller.batches).
type cleanupBatch struct {
	refs      []cap.Ref
	stubs     []*cap.Node
	remaining int
}

// newCall takes a pending-call record off the free list, for a call
// of the given kind about ref, addressed to ref's owner.
func (c *Controller) newCall(kind callKind, ref cap.Ref) *pendingCall {
	pc := c.calls.Get()
	if pc.caps == nil { // a new record
		pc.imms, pc.immData, pc.caps = pc.immArgs[:0], pc.immBytes[:0], pc.capArgs[:0]
	}
	pc.kind, pc.c, pc.entry.Ref = kind, c, ref
	return pc
}

// peer is the Controller the call is addressed to. It is what lets
// calls be aborted when that Controller is observed to have failed or
// rebooted.
func (pc *pendingCall) peer() cap.ControllerID { return pc.entry.Ref.Ctrl }

// putCall clears a record — dropping its reference to the Process,
// keeping the argument storage — and returns it to the free list.
func (c *Controller) putCall(pc *pendingCall) {
	*pc = pendingCall{imms: pc.imms[:0], immData: pc.immData[:0], caps: pc.caps[:0]}
	c.calls.Put(pc)
}

// keepImms copies a syscall's immediates — the Decoder's list, the
// frame's bytes — into storage the record owns.
func (pc *pendingCall) keepImms(imms []wire.ImmArg) {
	pc.imms, pc.immData = wire.KeepImms(pc.imms, pc.immData, imms)
}

// keepCaps copies a syscall's resolved capability arguments out of the
// Controller's scratch into storage the record owns.
func (pc *pendingCall) keepCaps(args []wire.CapXfer) {
	pc.caps = append(pc.caps[:0], args...)
}

// forward is ask for a syscall handler: the handler's duty to complete
// the Process's token passes to the record, and finishSyscall discharges
// it exactly once when the call resolves.
//
//fractos:ordered
func (c *Controller) forward(pc *pendingCall, ps *procState, tok uint64) {
	pc.ps, pc.tok = ps, tok
	c.ask(pc)
}

// ask puts a call's question to the owner of the object it is about, and
// is the one place the capability path tells a local owner from a
// remote one. A peer is asked through call. This Controller answers at
// once, with the owner-side step a peer runs for the same question
// (dispatchPeer) and the answer that peer would send, and the record
// retires with it: finish settles a local operation exactly as it
// settles a peer's reply. The answer lives in the Controller's scratch
// (txAck, txValInfo) and is valid until finish returns.
//
//fractos:ordered
func (c *Controller) ask(pc *pendingCall) {
	if pc.peer() != c.id {
		c.call(pc)
		return
	}
	ref, a := pc.entry.Ref, &c.txAck
	switch pc.kind {
	case callValidate:
		c.txValInfo = c.ownLocate(ref, pc.rights)
		c.retire(pc, &c.txValInfo)
		return
	case callInvoke:
		*a = wire.CtrlAck{Status: c.deliverInvoke(ref, pc.imms, pc.caps)}
		if a.Status != wire.StatusOK {
			c.metrics.InvokesRefused++
		}
	case callDeriveMem:
		*a = c.ownDeriveMem(ref, pc.off, pc.size, pc.rights)
	case callDeriveReq:
		*a = c.ownDeriveReq(ref, pc.imms, pc.caps)
	case callRevtree:
		*a = c.ownRevtree(ref)
	case callWatch:
		*a = c.ownWatch(ref, cap.Watcher{Proc: pc.ps.id, Ctrl: c.id, Callback: pc.callback})
	default: // callRevoke, callLeaseRevoke: a cleanup is addressed to peers only
		*a = wire.CtrlAck{Status: c.revokeLocal(ref)}
		// A lease of ours already revoked is fine during a failure's
		// cascade; anything else means the leased entry named an object
		// this Controller never owned.
		assert.That(pc.kind != callLeaseRevoke || a.Status == wire.StatusOK || a.Status == wire.StatusRevoked,
			"core: leased-entry revocation failed with status %v", a.Status)
	}
	c.retire(pc, a)
}

// call issues an inter-Controller request described by pc, taking
// ownership of the record. finish(pc, reply) runs exactly once, in
// simulation context, when the matching response arrives — or with a
// synthetic failure CtrlAck when the call cannot complete: the peer's
// endpoint is torn down (StatusNoProc), the peer is observed dead or
// rebooted (StatusAborted via abortPendingTo), this Controller itself
// crashes (StatusAborted via Crash), or, on a lossy fabric, the call's
// deadline passes unanswered (StatusAborted); an invocation its reply
// answers, as the reply delivers (awaitReply). A cleanup broadcast calls
// it directly, the other calls through ask; only a syscall's, which
// enters through forward, owes a Process a completion.
//
//fractos:ordered
func (c *Controller) call(pc *pendingCall) {
	p, ok := c.peers[pc.peer()]
	if !ok {
		c.retire(pc, &wire.CtrlAck{Status: wire.StatusUnknownObj})
		return
	}
	if pc.oneWay {
		c.send(p.ep, c.frame(pc)) // under token 0: the owner delivers and answers nothing
		c.putCall(pc)
		return
	}
	c.nextToken++
	pc.token = c.nextToken
	c.pending[pc.token] = pc
	if !c.net.Send(c.ep.ID, p.ep, c.frame(pc)) {
		// A torn-down endpoint is locally observable (unlike in-flight
		// loss): fail fast, no retransmission.
		c.resolvePending(pc.token, &wire.CtrlAck{Status: wire.StatusNoProc})
		return
	}
	pc.sent = c.k.Now()
	if c.net.Lossy() {
		pc.rto = p.rtt.rto()
		pc.timer = c.k.AfterCall(pc.rto, pc)
	} else if pc.kind == callInvoke {
		c.awaitReply(pc)
	}
}

// revokeLease asks a lease's owner, here or at a peer, to revoke it.
// Nobody waits for the answer: the holder failed or the object was
// derived for an entry the holder's quota refused, and an owner that is
// gone revokes its world through the epoch announcement.
func (c *Controller) revokeLease(ref cap.Ref) {
	c.ask(c.newCall(callLeaseRevoke, ref))
}

// frame builds the request message of a pending call under its token.
// The hot kinds (an invocation, a memory_copy's validation) reuse
// Controller-owned structs: Net.Send encodes them before returning and
// retains nothing.
func (c *Controller) frame(pc *pendingCall) wire.Message {
	ref, token := pc.entry.Ref, pc.token
	switch pc.kind {
	case callInvoke:
		c.txInvoke = wire.CtrlInvoke{Token: token, Src: c.id, Replied: !pc.reply.IsZero(), Ref: ref, Imms: pc.imms, Caps: pc.caps}
		return &c.txInvoke
	case callDeriveMem:
		return &wire.CtrlDeriveMem{Token: token, Src: c.id, From: ref, Offset: pc.off, Size: pc.size, Drop: pc.rights}
	case callDeriveReq:
		return &wire.CtrlDeriveReq{Token: token, Src: c.id, From: ref, Imms: pc.imms, Caps: pc.caps}
	case callRevtree:
		return &wire.CtrlRevtree{Token: token, Src: c.id, From: ref}
	case callRevoke, callLeaseRevoke:
		return &wire.CtrlRevoke{Token: token, Src: c.id, From: ref}
	case callWatch:
		return &wire.CtrlWatch{Token: token, Src: c.id, Ref: ref,
			WatcherProc: pc.ps.id, WatcherCtrl: c.id, Callback: pc.callback}
	case callCleanup:
		return &wire.CtrlCleanup{Token: token, Refs: pc.batch.refs}
	default: // callValidate
		c.txValidate = wire.CtrlValidate{Token: token, Src: c.id, Ref: ref, Need: pc.rights}
		return &c.txValidate
	}
}

// finish runs a call's continuation on its reply (real or synthetic).
func (c *Controller) finish(pc *pendingCall, reply wire.Message) {
	switch pc.kind {
	case callLeaseRevoke:
		// Fire and forget: the owner revoked the lease or is gone.
	case callCleanup:
		if pc.batch.remaining--; pc.batch.remaining == 0 {
			c.putBatch(pc.batch, true)
		}
	case callValidate:
		// The copy resumes right here, on the borrowed reply. A call that
		// failed on this side was answered with a synthetic CtrlAck.
		switch m := reply.(type) {
		case *wire.CtrlValInfo:
			pc.copy.located(memLoc{ep: m.Endpoint, base: m.Base, size: m.Size}, m.Status)
		case *wire.CtrlAck:
			pc.copy.located(memLoc{}, m.Status)
		default:
			pc.copy.located(memLoc{}, wire.StatusAborted)
		}
	default:
		c.finishSyscall(pc, reply)
	}
}

// finishSyscall is the second half of a syscall that asked the owner,
// here or at a peer: it completes the Process's token exactly once on
// every path.
func (c *Controller) finishSyscall(pc *pendingCall, reply wire.Message) {
	ack, ok := reply.(*wire.CtrlAck)
	st := wire.StatusUnknownObj
	if ok {
		st = ack.Status
	}
	switch pc.kind {
	case callDeriveMem, callDeriveReq, callRevtree:
		if st != wire.StatusOK {
			c.complete(pc.ps, pc.tok, st, cap.NilCap, 0)
			return
		}
		// Install the derived capability: pc.entry carries what it
		// inherits from the parent entry, the owner supplies the new
		// object — and, for Memory, its authoritative extent and rights.
		e := pc.entry
		e.Ref = cap.Ref{Ctrl: e.Ref.Ctrl, Obj: ack.Obj, Epoch: ack.Epoch}
		var aux uint64
		if pc.kind == callDeriveMem {
			e.Rights &= ack.Rights
			e.Size, aux = ack.Size, ack.Size
		}
		c.grant(pc.ps, pc.tok, e, aux)
	case callRevoke:
		pc.ps.space.Drop(pc.cid)
		c.complete(pc.ps, pc.tok, st, cap.NilCap, 0)
	default: // callInvoke, callWatch
		if pc.kind == callInvoke {
			c.invoked(pc, st)
		}
		c.complete(pc.ps, pc.tok, st, cap.NilCap, 0)
	}
}

// Fire implements sim.Callback: the current attempt's timeout expired
// with the call still unanswered — a call that retires stops its timer.
// Retransmit under the same token and double the timeout up to
// rtoCeiling; once the call's deadline has passed resolve it as aborted.
func (pc *pendingCall) Fire() {
	c := pc.c
	left := pc.sent + RPCBudget - c.k.Now()
	if left <= 0 {
		c.abortCall(pc.token)
		return
	}
	p := c.peers[pc.peer()]
	pc.attempt++
	c.metrics.Retransmits++
	if !c.net.Send(c.ep.ID, p.ep, c.frame(pc)) {
		c.resolvePending(pc.token, &wire.CtrlAck{Token: pc.token, Status: wire.StatusNoProc})
		return
	}
	pc.rto = min(2*pc.rto, rtoCeiling)
	p.rtt.backOff(pc.rto)
	pc.timer = c.k.AfterCall(min(pc.rto, left), pc)
}

// answered takes a peer's response to one of our calls. The round trip
// of a call that was never resent is a sample for that peer's
// estimator — Karn's rule: after a resend the response cannot be
// matched to a send — then the call resolves.
func (c *Controller) answered(token uint64, m wire.Message) {
	pc, ok := c.pending[token]
	if !ok {
		return
	}
	if pc.attempt == 0 {
		c.peers[pc.peer()].rtt.sample(c.k.Now() - pc.sent)
	}
	delete(c.pending, token)
	c.retire(pc, m)
}

// abortCall resolves the call parked under token with a synthetic
// StatusAborted. Every source of that status on the peer's account —
// deadline passed, peer dead or rebooted, own crash — mints it here, so
// RPCAborted counts them all.
//
//fractos:ordered
func (c *Controller) abortCall(token uint64) {
	c.metrics.RPCAborted++
	c.resolvePending(token, &wire.CtrlAck{Token: token, Status: wire.StatusAborted})
}

// resolvePending retires the call parked under token, if any: run its
// continuation on m, then recycle the record.
//
//fractos:ordered
func (c *Controller) resolvePending(token uint64, m wire.Message) {
	pc, ok := c.pending[token]
	if !ok {
		return
	}
	delete(c.pending, token)
	c.retire(pc, m)
}

// retire ends a call's life, however it ended — answered, undeliverable,
// aborted: withdraw its retransmission timer, run its continuation on
// the reply (real or synthetic), then recycle the record.
func (c *Controller) retire(pc *pendingCall, reply wire.Message) {
	pc.timer.Stop()
	c.finish(pc, reply)
	c.putCall(pc)
}

// sortedPendingTokens returns the tokens of the outstanding calls
// selected by keep (all of them when keep is nil) in ascending order:
// aborts must not publish map iteration order into the message stream.
func (c *Controller) sortedPendingTokens(keep func(*pendingCall) bool) []uint64 {
	tokens := make([]uint64, 0, len(c.pending))
	for tok, pc := range c.pending {
		if keep == nil || keep(pc) {
			tokens = append(tokens, tok)
		}
	}
	slices.Sort(tokens)
	return tokens
}

// abortPendingTo fails every outstanding call addressed to a peer that
// has been observed dead or rebooted, so syscalls waiting on it
// complete with an error instead of hanging.
func (c *Controller) abortPendingTo(peer cap.ControllerID) {
	for _, tok := range c.sortedPendingTokens(func(pc *pendingCall) bool { return pc.peer() == peer }) {
		c.abortCall(tok)
	}
}

// abortAllPending fails every outstanding inter-Controller call, in
// ascending token order, with StatusAborted. Used by Crash so that a
// failing Controller deterministically unwinds its own in-flight RPCs
// instead of leaking their continuations across the reboot.
func (c *Controller) abortAllPending() {
	for _, tok := range c.sortedPendingTokens(nil) {
		c.abortCall(tok)
	}
}
