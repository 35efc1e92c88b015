package proc

import (
	"errors"
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/cap"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// ErrCallTimeout is returned by CallTimeout when the reply does not
// arrive within the deadline. It classifies as transient (Retryable):
// the usual cause is a provider whose Controller died after admitting
// the request — its revocation tree died with it, so no failure
// notification will ever resolve the continuation (§3.6) — and
// re-issuing against another replica can succeed.
var ErrCallTimeout = errors.New("proc: call timed out awaiting reply")

// Call performs a synchronous RPC over a Request (§3.4's A→B→A'
// pattern): it passes one of the Process's reply Requests in replySlot,
// invokes req with a copy of imms, read before this returns, and waits
// for the reply, which it acknowledges. Reply Requests are reused from
// call to call — a call creates one only when every other is in use —
// and each delegation is good for one reply (wire.ReplyTag).
//
// The reply is borrowed, like a decoded message: it is valid until the
// calling task next blocks or starts another Call, when the next Call on
// the Process takes its descriptor back. Read what is needed from it
// first; copy out what must last longer.
func (p *Process) Call(t *sim.Task, req Cap, imms []wire.ImmArg, args []Arg, replySlot uint16) (*Delivery, error) {
	return p.CallTimeout(t, req, imms, args, replySlot, 0)
}

// CallTimeout is Call with a virtual-time bound on the reply (0 means
// wait forever) from the invocation's post. On timeout it revokes the
// reply Request — a late reply then bounces off the provider's delegated
// continuation with StatusRevoked instead of being delivered — and
// arranges for a reply already in flight to be discarded, then returns
// ErrCallTimeout. Callers that fan requests out
// over replaceable providers (the route package's balancer) use the
// bound to detect providers that died *after* admitting a request, the
// one failure the capability layer cannot signal (a crashed Controller's
// revocation trees die with it).
//
// The call's syscalls and its reply are steps of a callOp, taken where
// their messages arrive: the caller is woken once, when the call is over.
// The reply is borrowed, as Call's is.
func (p *Process) CallTimeout(t *sim.Task, req Cap, imms []wire.ImmArg, args []Arg, replySlot uint16, d sim.Time) (*Delivery, error) {
	op := p.getCallOp()
	op.start(req, imms, args, replySlot, d)
	return p.await(t, op)
}

// CallWith is Call over a reply Request the caller holds (ReplyRequest),
// whose invocations arrive under replyTag: it is already among args or
// preset in req — latency-critical paths exchange Requests ahead of
// time, as the paper's micro-benchmarks do, and reuse one across calls,
// one call at a time. The invocation declares reply, which its
// Controller arms for this call's one reply without renaming it (a copy
// preset in a derived Request must reach it) until a refusal or an
// abort disarms it: a reply no call is armed for is refused
// (StatusRevoked), and a Request that is no reply Request fails the call
// before anything is posted (StatusKind). The reply is borrowed, as
// Call's is.
func (p *Process) CallWith(t *sim.Task, req Cap, imms []wire.ImmArg, args []Arg, reply Cap, replyTag uint64) (*Delivery, error) {
	if replyTag&wire.ReplyTag == 0 {
		return nil, wire.StatusKind.Err()
	}
	if err := p.checkOwn(reply); err != nil {
		return nil, err
	}
	op := p.getCallOp()
	op.theirs = replyReq{cid: reply.id, tag: replyTag}
	op.reply = &op.theirs
	op.start(req, imms, args, 0, 0)
	return p.await(t, op)
}

// await blocks until a blocking call's op is over and returns its outcome.
func (p *Process) await(t *sim.Task, op *callOp) (*Delivery, error) {
	_, _ = op.done.Wait(t) // the outcome is in the op
	dv, err := op.result()
	if dv != nil {
		p.spent = append(p.spent, dv) // the caller reads it: spent when the next Call starts
	}
	p.putCallOp(op)
	return dv, err
}

// CallWaiter is a record that a Call steps, in kernel context, when the
// call is over (CallThen).
type CallWaiter interface {
	// Called takes the reply, nil if the call failed, borrowed until
	// Called returns.
	Called(dv *Delivery)
}

// CallThen is Call for a record in kernel context: it starts the call
// and returns, and the call's last step passes w its outcome instead of
// waking a task. Its reply Request and deadline-free steps are Call's.
func (p *Process) CallThen(req Cap, imms []wire.ImmArg, args []Arg, replySlot uint16, w CallWaiter) {
	op := p.getCallOp()
	op.then = w // the call's steps own op from here: the last puts it back (over)
	op.start(req, imms, args, replySlot, 0)
}

// replyReq is a reply Request of this Process: its capability and the
// tag its invocations arrive under. Calls take theirs from
// Process.replies and put them back as they found them, so the set holds
// as many as Calls have been in progress at once.
type replyReq struct {
	cid cap.CapID
	tag uint64
}

// getReply takes a reply Request off the set or, when every one is in
// use, a record with a tag and no capability yet: the call creates it.
func (p *Process) getReply() *replyReq {
	r := p.replies.Get()
	if r.tag == 0 {
		r.tag = wire.ReplyTag | p.NewTag()
	}
	return r
}

// callOp is one Call in progress: a pooled record stepped in kernel
// context (from demux, and by its deadline) through
//
//	request_invoke, passing a free reply Request → the reply's
//	delivery: Done, the reply Request is free again → over
//
// with a request_create in front when no reply Request is free, and its
// error legs: an invoke the owner refused frees the reply Request at
// once; one that ended without the owner's answer (StatusAborted,
// StatusNoProc) may have been delivered all the same, so like the
// deadline it drops the tag's waiter and ends with a cap_revoke, and
// that reply Request is never used again; a syscall that finds the channel to
// the Controller severed ends the call on the spot. The arguments are
// copied into the op — the reply Request's slot last — since the
// invocation may be posted only after a request_create. A CallWith's op
// holds the caller's reply Request (theirs) and steps the same states
// but for its own: no request_create, no slot, no cap_revoke.
type callOp struct {
	p     *Process
	state callState

	req      Cap
	imms     []wire.ImmArg
	immData  []byte // the bytes of imms, back to back
	slots    []wire.CapSlot
	d        sim.Time
	deadline sim.Timer

	reply  *replyReq // the reply Request this call holds
	theirs replyReq  // a CallWith's reply Request: the caller's tag
	tok    uint64    // the invocation's token

	// The outcome, for result: the reply, or why there is none — err, the
	// status of the syscall that was refused, the deadline (with err or
	// refused then saying why its cap_revoke failed).
	dv       *Delivery
	err      error
	refused  wire.Status
	timedOut bool
	done     sim.Future[struct{}] // a blocking Call's
	then     CallWaiter           // a CallThen's
}

// callState says which message a Call is waiting for.
type callState uint8

const (
	callCreating callState = iota + 1 // the reply Request's completion
	callInvoking                      // the invocation's completion
	callWaiting                       // the reply
	callRevoking                      // the completion of the reply Request's cap_revoke: deadline passed, or invocation unaccounted for
)

// getCallOp takes a record for a Call that is starting. The replies the
// Calls before it returned are spent now: their callers have blocked
// since, or are starting this one.
func (p *Process) getCallOp() *callOp {
	for i, dv := range p.spent {
		p.putDelivery(dv)
		p.spent[i] = nil
	}
	p.spent = p.spent[:0]
	op := p.calls.Get()
	op.p = p
	return op
}

// putCallOp clears an op, so that a message or deadline that outlived
// its call trips the assert its step starts with, and recycles it —
// except under the race detector (poison_race.go), which only counts it
// back.
func (p *Process) putCallOp(op *callOp) {
	*op = callOp{imms: op.imms[:0], immData: op.immData[:0], slots: op.slots[:0]}
	if recycleCallOps {
		p.calls.Put(op)
	} else {
		p.calls.Drop()
	}
}

// start posts the invocation with a free reply Request, or the
// request_create of a new one. A handle of another Process among the
// arguments fails the call before anything is posted.
func (op *callOp) start(req Cap, imms []wire.ImmArg, args []Arg, replySlot uint16, d sim.Time) {
	p := op.p
	if op.err = p.checkInvoke(req, args); op.err != nil {
		op.over()
		return
	}
	op.req, op.d = req, d
	op.imms, op.immData = wire.KeepImms(op.imms, op.immData, imms)
	op.slots = appendSlots(op.slots[:0], args)
	if op.callers() {
		op.invoke()
		return
	}
	op.slots = append(op.slots, wire.CapSlot{Slot: replySlot})
	op.reply = p.getReply() // the call's until release, or for good (a revoked one)
	if op.reply.cid != cap.NilCap {
		op.invoke()
		return
	}
	op.state = callCreating
	p.nextToken++
	p.tx.reqCreate = wire.ReqCreate{Token: p.nextToken, Parent: cap.NilCap, Tag: op.reply.tag}
	op.post(p.nextToken, &p.tx.reqCreate)
}

// callers reports whether the call's reply Request is the caller's
// (CallWith).
func (op *callOp) callers() bool { return op.reply == &op.theirs }

// invoke posts the invocation, the reply Request in its slot.
func (op *callOp) invoke() {
	p := op.p
	if !op.callers() {
		op.slots[len(op.slots)-1].Cid = op.reply.cid
	}
	op.state = callInvoking
	p.nextToken++
	op.tok = p.nextToken
	p.tx.reqInvoke = wire.ReqInvoke{Token: op.tok, Cid: op.req.id, Imms: op.imms, Caps: op.slots}
	if op.callers() {
		p.tx.reqInvoke.Reply = op.reply.cid
	}
	if op.post(op.tok, &p.tx.reqInvoke) {
		p.waiters[op.reply.tag] = op
		if op.d > 0 {
			op.deadline = p.k.AfterCall(op.d, op)
		}
	}
}

// post sends one of the call's syscalls. If the channel to the
// Controller is severed the call is over, with ErrDisconnected.
func (op *callOp) post(token uint64, m wire.Message) bool {
	if op.p.send(sysWaiter{op: op}, token, m) {
		return true
	}
	op.err = ErrDisconnected
	op.over()
	return false
}

// Completed implements Waiter: it steps the call on the completion of its
// current syscall.
func (op *callOp) Completed(m *wire.Completion) {
	p := op.p
	switch op.state {
	case callCreating:
		if m.Status != wire.StatusOK {
			op.refused = m.Status
			op.over()
			return
		}
		op.reply.cid = m.Cid
		op.invoke()
	case callInvoking:
		switch {
		case op.dv != nil:
			op.release() // the reply overtook the invocation's completion
		case m.Status == wire.StatusOK:
			op.state = callWaiting
		case (m.Status == wire.StatusAborted || m.Status == wire.StatusNoProc) && !op.callers():
			// Not a refusal: the owner's answer is missing, and the provider
			// may hold the invocation and reply to it yet.
			op.refused = m.Status
			op.retire()
		default:
			// The Controller took the arming of the reply Request back — a
			// CallWith's declared one too, whose late reply it refuses.
			delete(p.waiters, op.reply.tag)
			op.deadline.Stop()
			op.refused = m.Status
			op.release()
		}
	case callRevoking:
		if op.timedOut {
			op.refused = m.Status
		}
		op.over()
	default:
		assert.True(false, "proc: a completion for a call that waits for none")
	}
}

// delivered takes the reply, which the op holds until the caller has it
// and putCallOp marks it spent.
func (op *callOp) delivered(dv *Delivery) {
	assert.True(op.dv == nil && (op.state == callInvoking || op.state == callWaiting), "proc: a reply for a call that waits for none")
	op.dv = dv
	op.deadline.Stop()
	if op.state == callWaiting {
		op.release()
	}
}

// release ends a call that leaves its reply Request as it found it —
// unarmed, nobody waiting on its tag — for the next call to take, or
// for its caller. A reply that came is acknowledged: it took no window
// credit, so that sends nothing.
func (op *callOp) release() {
	if op.dv != nil {
		op.dv.Done()
	}
	if !op.callers() {
		op.p.replies.Put(op.reply)
	}
	op.over()
}

// Fire implements sim.Callback: the deadline passed with no reply, and
// the invocation's completion, if still to come, is discarded.
func (op *callOp) Fire() {
	assert.True(op.dv == nil && (op.state == callInvoking || op.state == callWaiting), "proc: a deadline for a call that waits for no reply")
	if op.state == callInvoking {
		op.p.pending[op.tok] = sysWaiter{}
	}
	op.timedOut = true
	op.retire()
}

// retire ends a call whose provider may still answer: with its waiter
// gone, a reply already on its way is discarded (demux), not
// leaked and not taken for the next call's, and the reply Request is
// revoked so one not yet sent fails fast at the provider. Nobody uses it
// again.
func (op *callOp) retire() {
	p := op.p
	op.deadline.Stop()
	delete(p.waiters, op.reply.tag)
	op.state = callRevoking
	p.nextToken++
	p.tx.capRevoke = wire.CapRevoke{Token: p.nextToken, Cid: op.reply.cid}
	op.post(p.nextToken, &p.tx.capRevoke)
}

// over ends the call: it wakes the calling task or, for CallThen, puts
// the op back, steps the record with the reply and takes the reply back.
func (op *callOp) over() {
	w := op.then
	if w == nil {
		op.done.Set(struct{}{})
		return
	}
	p, dv, failed := op.p, op.dv, op.err != nil || op.refused != wire.StatusOK
	p.putCallOp(op)
	if dv == nil || failed {
		w.Called(nil)
	} else {
		w.Called(dv)
	}
	if dv != nil {
		p.putDelivery(dv)
	}
}

// result is what the Call returns, read by the caller once done.
func (op *callOp) result() (*Delivery, error) {
	err := op.err
	if err == nil {
		err = op.refused.Err()
	}
	switch {
	case op.timedOut && err != nil:
		return nil, fmt.Errorf("proc: revoke timed-out reply request: %w", err)
	case op.timedOut:
		return nil, ErrCallTimeout
	case err != nil:
		return nil, err
	}
	return op.dv, nil
}
