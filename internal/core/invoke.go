package core

import (
	"fractos/internal/cap"
	"fractos/internal/wire"
)

// handleReqInvoke invokes a Request (request_invoke). Invoke-time
// refinements (immediates and capability arguments) are applied on top
// of the Request object's preset arguments for this invocation only —
// the object itself is never mutated, preserving the §3.4 security
// property.
//
// If the Request is owned here (the provider is one of our Processes),
// the invocation is local: syscall → delivery, two hops. Otherwise it
// goes to the owning Controller: three hops each way at most, as in
// §6.1.
func (c *Controller) handleReqInvoke(ps *procState, m *wire.ReqInvoke) {
	e, st := c.resolveEntry(ps, m.Cid, cap.KindRequest, cap.Invoke)
	if st != wire.StatusOK {
		c.metrics.InvokesRefused++
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	capArgs, st := c.resolveCapSlots(ps, m.Caps)
	var reply cap.Ref
	if st == wire.StatusOK {
		reply, st = c.armReplies(ps, m, capArgs)
	}
	if st != wire.StatusOK {
		c.metrics.InvokesRefused++
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	if e.Once {
		ps.space.Drop(m.Cid) // a reply Request's delegation: this is its one delivery
	}
	pc := c.newCall(callInvoke, e.Ref)
	pc.keepImms(m.Imms)
	pc.keepCaps(capArgs)
	pc.reply = reply
	// Token 0 (Delivery.Reply) waits for nothing, so on a reliable fabric
	// the owner need not answer — unless a refusal must take an arming back.
	pc.oneWay = m.Token == 0 && reply.IsZero() && !c.net.Lossy()
	c.forward(pc, ps, m.Token)
}

// ownReply returns the reply Request behind a capability argument of ps,
// if it is one ps provides — created here, at its Controller, and by it
// (a child somebody derived from a delegation is never armed).
func (c *Controller) ownReply(ps *procState, a *wire.CapXfer) (*cap.Node, *reqObject) {
	if a.Kind != cap.KindRequest || a.Ref.Ctrl != c.id {
		return nil, nil
	}
	n, st := c.resolveOwned(a.Ref)
	if st != wire.StatusOK || n.Parent != 0 {
		return nil, nil
	}
	if ro, ok := n.Payload.(*reqObject); ok && ro.reply() && ro.provider == ps.id {
		return n, ro
	}
	return nil, nil
}

// armReplies arms the reply Requests of ps an invocation declares or
// passes among its capability arguments (args[i] came from m.Caps[i]),
// and returns the one that answers it — the declared one, else the first
// it armed — or none. A passed one takes a new name — in the provider's
// entry and in the delegation — so that whatever was kept of an earlier
// delegation names nothing, and under that name it is good for one
// delivery, so the delegation is marked Once, not Relayed. The
// invocation awaiting the reply under the old name can have none; but if
// a delegation of that name (Once) came back to ps, it was delivered.
// The declared one keeps its name everywhere (a copy preset in a Request
// derived elsewhere must reach it); a declaration of anything else is
// refused (StatusKind) before any arming.
func (c *Controller) armReplies(ps *procState, m *wire.ReqInvoke, args []wire.CapXfer) (reply cap.Ref, st wire.Status) {
	if m.Reply != cap.NilCap {
		e, st := c.resolveEntry(ps, m.Reply, cap.KindRequest, 0)
		_, ro := c.ownReply(ps, &wire.CapXfer{Ref: e.Ref, Kind: e.Kind})
		if st == wire.StatusOK && ro == nil {
			st = wire.StatusKind
		}
		if st != wire.StatusOK {
			return cap.Ref{}, st
		}
		c.answerInvoker(ro, wire.StatusAborted)
		ro.armed, reply = true, e.Ref
	}
	declared := reply
	for i := range args {
		if !declared.IsZero() && args[i].Ref == declared {
			args[i].Once, args[i].Relayed = true, false
			continue
		}
		if n, ro := c.ownReply(ps, &args[i]); ro != nil {
			st := wire.StatusAborted
			if args[i].Once {
				st = wire.StatusOK
			}
			c.answerInvoker(ro, st)
			args[i].Ref.Obj = c.tree.Rekey(n.ID)
			args[i].Once, args[i].Relayed = true, false
			ps.space.Peek(m.Caps[i].Cid).Ref = args[i].Ref
			ro.armed = true
			if reply.IsZero() {
				reply = args[i].Ref
			}
		}
	}
	return reply, wire.StatusOK
}

// awaitReply parks a forwarded invocation on the reply Requests it
// armed: declared, or passed Once and not Relayed.
func (c *Controller) awaitReply(pc *pendingCall) {
	park := func(ref cap.Ref) {
		if n, st := c.resolveOwned(ref); st == wire.StatusOK { // armed by this very syscall: live
			n.Payload.(*reqObject).call = pc.token
		}
	}
	park(pc.reply) // a zero Ref resolves to nothing
	for _, a := range pc.caps {
		if a.Once && !a.Relayed && a.Ref.Ctrl == c.id {
			park(a.Ref)
		}
	}
}

// answerInvoker completes the invocation awaiting ro's reply, if any: OK
// as it delivers, Aborted once it cannot (ro revoked, or armed again).
func (c *Controller) answerInvoker(ro *reqObject, st wire.Status) {
	if ro.call != 0 {
		c.txAck = wire.CtrlAck{Status: st}
		c.resolvePending(ro.call, &c.txAck)
		ro.call = 0
	}
}

// invoked settles an invocation once its outcome is known: refused or
// aborted, it takes back the arming of the reply Requests it passed or
// declared, so a reply that comes after all is refused.
func (c *Controller) invoked(pc *pendingCall, st wire.Status) {
	if st == wire.StatusOK {
		return
	}
	disarm := func(a *wire.CapXfer) {
		if _, ro := c.ownReply(pc.ps, a); ro != nil {
			ro.armed, ro.call = false, 0
		}
	}
	disarm(&wire.CapXfer{Ref: pc.reply, Kind: cap.KindRequest}) // a zero Ref is nobody's
	for i := range pc.caps {
		disarm(&pc.caps[i])
	}
}

// deliverInvoke performs the owner-side invocation: validate the
// Request, merge invoke-time arguments, delegate capability arguments
// into the provider's space, and deliver a request_receive descriptor.
// A reply Request delivers only while armed, and the delivery disarms
// it and, before the descriptor, completes the invocation awaiting it.
// It takes no window credit: its provider armed it for this one delivery
// (a Call waits for it), so it never waits behind the window either.
//
// The merge never touches the Request object (§3.4) and never copies
// it either: preset and invoke-time arguments meet in Controller-owned
// scratch — the immediates under the same write-once rule a derivation
// applies, the capabilities in one slot-sorted list — and the
// descriptor is encoded straight from there. Only a descriptor that
// must wait for a window credit is copied out.
//
//fractos:cap-deref
func (c *Controller) deliverInvoke(ref cap.Ref, imms []wire.ImmArg, extra []wire.CapXfer) wire.Status {
	n, st := c.resolveOwned(ref)
	if st != wire.StatusOK {
		return st
	}
	ro, ok := n.Payload.(*reqObject)
	if !ok {
		return wire.StatusKind
	}
	if ro.reply() && !ro.armed {
		return wire.StatusRevoked // a delegation already used, or never made
	}
	prov, ok := c.procs[ro.provider]
	if !ok || prov.failed {
		return wire.StatusNoProc
	}

	c.immScratch.copyFrom(&ro.imms)
	if st := c.immScratch.apply(imms); st != wire.StatusOK {
		return st
	}
	merged, st := mergeCaps(append(c.capScratch[:0], ro.caps...), extra)
	c.capScratch = merged[:0]
	if st != wire.StatusOK {
		return st
	}

	// Delegate capability arguments: install entries in the provider's
	// capability space, in slot order for determinism. On quota
	// exhaustion the whole delegation is rolled back.
	d := &c.txDeliver
	d.Caps = d.Caps[:0]
	for _, a := range merged {
		cid, st := c.install(prov, cap.Entry{
			Ref: a.Ref, Kind: a.Kind, Rights: a.Rights, Size: a.Size, Leased: a.Leased, Once: a.Once,
			Delivery: prov.deliverSeq + 1,
		})
		if st != wire.StatusOK {
			for _, dc := range d.Caps {
				prov.space.Drop(dc.Cid)
			}
			return st
		}
		d.Caps = append(d.Caps, wire.DeliveredCap{
			Slot: a.Slot, Cid: cid, Kind: a.Kind, Rights: a.Rights, Size: a.Size,
		})
	}

	ro.armed = false
	c.answerInvoker(ro, wire.StatusOK)
	prov.deliverSeq++
	d.Seq, d.Tag, d.Imms = prov.deliverSeq, ro.tag, c.immScratch.bytes()
	if prov.window <= 0 && !ro.reply() {
		// Congestion control: queue until the provider acknowledges
		// earlier deliveries (§4's back-pressure). The queued descriptor
		// outlives this invocation, so it gets its own storage.
		c.metrics.Backpressured++
		prov.queue = append(prov.queue, &wire.Deliver{
			Seq: d.Seq, Tag: d.Tag,
			Imms: append([]byte(nil), d.Imms...),
			Caps: append([]wire.DeliveredCap(nil), d.Caps...),
		})
		return wire.StatusOK
	}
	c.sendDeliver(prov, d)
	return wire.StatusOK
}
