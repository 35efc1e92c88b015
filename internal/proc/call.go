package proc

import (
	"errors"
	"fmt"

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
// pattern): it creates a one-shot reply Request, passes it in
// replySlot, invokes req, and waits for the continuation to be invoked
// back. The reply delivery is acknowledged automatically.
func (p *Process) Call(t *sim.Task, req Cap, imms []wire.ImmArg, args []Arg, replySlot uint16) (*Delivery, error) {
	return p.CallTimeout(t, req, imms, args, replySlot, 0)
}

// CallTimeout is Call with a virtual-time bound on the reply (0 means
// wait forever). On timeout it revokes the reply Request — a late
// reply then bounces off the provider's delegated continuation with
// StatusRevoked instead of being delivered — and arranges for a reply
// already in flight to be acknowledged and discarded, then returns
// ErrCallTimeout. Callers that fan requests out over replaceable
// providers (the route package's balancer) use the bound to detect
// providers that died *after* admitting a request, the one failure the
// capability layer cannot signal (a crashed Controller's revocation
// trees die with it).
//
// The call's four syscalls and its reply are steps of a callOp, taken
// where their messages arrive: the caller is woken once, when the call
// is over.
func (p *Process) CallTimeout(t *sim.Task, req Cap, imms []wire.ImmArg, args []Arg, replySlot uint16, d sim.Time) (*Delivery, error) {
	op := p.getCallOp()
	op.start(req, imms, args, replySlot, d)
	_, _ = op.done.Wait(t) // the outcome is in the op
	dv, err := op.result()
	p.putCallOp(op)
	return dv, err
}

// callOp is one Call in progress: a pooled record stepped in kernel
// context (from demux, and by its deadline) through
//
//	request_create of the reply Request → request_invoke, posted the
//	instant the reply Request's cid arrives → the reply's delivery:
//	Done → cap_drop of the reply Request → over
//
// and its error legs: a refused invoke skips to the cap_drop; the
// deadline marks the tag stale and ends with a cap_revoke instead; a
// syscall that finds the channel to the Controller severed ends the
// call on the spot. imms is the blocked caller's; the capability
// arguments are copied into the op, the reply Request's slot last.
type callOp struct {
	p     *Process
	state callState

	req      Cap
	imms     []wire.ImmArg
	slots    []wire.CapSlot
	d        sim.Time
	deadline sim.Timer

	reply cap.CapID // the reply Request, once created
	tag   uint64    // and its tag

	// The outcome, for result: the reply, or why there is none — err, the
	// status of the syscall that was refused, the deadline (with err or
	// refused then saying why the cap_revoke failed).
	dv       *Delivery
	err      error
	refused  wire.Status
	timedOut bool
	done     sim.Future[struct{}]
}

// callState says which message a Call is waiting for.
type callState uint8

const (
	callCreating callState = iota + 1 // the reply Request's completion
	callInvoking                      // the invocation's completion
	callWaiting                       // the reply
	callDropping                      // the completion of the reply Request's cap_drop
	callRevoking                      // or of its cap_revoke, past the deadline
)

//fractos:pool-acquire callop
func (p *Process) getCallOp() *callOp {
	op := p.calls.Get()
	op.p = p
	return op
}

//fractos:pool-release callop
func (p *Process) putCallOp(op *callOp) {
	*op = callOp{slots: op.slots[:0]}
	p.calls.Put(op)
}

// start posts the request_create of the reply Request. A handle of
// another Process among the arguments fails the call where the
// invocation would have been posted.
func (op *callOp) start(req Cap, imms []wire.ImmArg, args []Arg, replySlot uint16, d sim.Time) {
	p := op.p
	op.req, op.imms, op.d = req, imms, d
	op.err = p.checkInvoke(req, args)
	op.slots = append(appendSlots(op.slots[:0], args), wire.CapSlot{Slot: replySlot})
	op.tag = p.NewTag()
	op.state = callCreating
	p.nextToken++
	p.tx.reqCreate = wire.ReqCreate{Token: p.nextToken, Parent: cap.NilCap, Tag: op.tag}
	op.post(p.nextToken, &p.tx.reqCreate)
}

// post sends one of the call's syscalls. If the channel to the
// Controller is severed the call is over: with ErrDisconnected, unless
// all that is lost is the cap_drop after an outcome it cannot change.
//
//fractos:hotpath
func (op *callOp) post(token uint64, m wire.Message) bool {
	if op.p.send(sysWaiter{op: op}, token, m) {
		return true
	}
	if op.state != callDropping {
		op.err = ErrDisconnected
	}
	op.done.Set(struct{}{})
	return false
}

// completed steps the call on the completion of its current syscall.
//
//fractos:hotpath
func (op *callOp) completed(m *wire.Completion) {
	p := op.p
	switch op.state {
	case callCreating:
		if m.Status != wire.StatusOK {
			op.refused = m.Status
			op.done.Set(struct{}{})
			return
		}
		op.reply = m.Cid
		if op.err != nil {
			op.drop()
			return
		}
		op.slots[len(op.slots)-1].Cid = m.Cid
		op.state = callInvoking
		p.nextToken++
		p.tx.reqInvoke = wire.ReqInvoke{Token: p.nextToken, Cid: op.req.id, Imms: op.imms, Caps: op.slots}
		if op.post(p.nextToken, &p.tx.reqInvoke) {
			p.waiters[op.tag] = tagWaiter{op: op}
		}
	case callInvoking:
		switch {
		case m.Status != wire.StatusOK:
			delete(p.waiters, op.tag)
			op.refused = m.Status
			op.drop()
		case op.dv != nil:
			op.replied() // the reply overtook the invocation's completion
		default:
			op.state = callWaiting
			if op.d > 0 {
				op.deadline = p.k.AfterCall(op.d, op)
			}
		}
	case callRevoking:
		op.refused = m.Status
		op.done.Set(struct{}{})
	case callDropping:
		// The reply Request is one-shot: whether the drop took or not,
		// the call is over.
		op.done.Set(struct{}{})
	}
}

// delivered takes the reply.
//
//fractos:hotpath
func (op *callOp) delivered(dv *Delivery) {
	op.dv = dv
	if op.state == callWaiting {
		op.deadline.Stop()
		op.replied()
	}
}

// replied acknowledges the reply and drops the reply Request.
//
//fractos:hotpath
func (op *callOp) replied() {
	op.dv.Done()
	op.drop()
}

// drop posts the cap_drop of the reply Request, the call's last step.
//
//fractos:hotpath
func (op *callOp) drop() {
	p := op.p
	op.state = callDropping
	p.nextToken++
	p.tx.capDrop = wire.CapDrop{Token: p.nextToken, Cid: op.reply}
	op.post(p.nextToken, &p.tx.capDrop)
}

// Fire implements sim.Callback: the deadline passed with no reply. Mark
// the tag stale so a reply that raced the timeout is acked (not
// leaked), and revoke the continuation so a reply not yet sent fails
// fast at the provider.
//
//fractos:hotpath
func (op *callOp) Fire() {
	p := op.p
	delete(p.waiters, op.tag)
	p.stale[op.tag] = true
	op.timedOut = true
	op.state = callRevoking
	p.nextToken++
	p.tx.capRevoke = wire.CapRevoke{Token: p.nextToken, Cid: op.reply}
	op.post(p.nextToken, &p.tx.capRevoke)
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
