package core

import (
	"fractos/internal/cap"
	"fractos/internal/fabric"
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
// is forwarded to the owning Controller: three hops each way at most,
// as in §6.1.
func (c *Controller) handleReqInvoke(ps *procState, m *wire.ReqInvoke) {
	e, st := c.resolveEntry(ps, m.Cid, cap.KindRequest, cap.Invoke)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	capArgs, st := c.resolveCapSlots(ps, m.Caps)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	if e.Ref.Ctrl == c.id {
		st := c.deliverInvoke(e.Ref, m.Imms, capArgs)
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	pc := c.newCall(callInvoke, e.Ref)
	pc.keepImms(m.Imms)
	pc.keepCaps(capArgs)
	c.forward(pc, ps, m.Token)
}

// deliverInvoke performs the owner-side invocation: validate the
// Request, merge invoke-time arguments, delegate capability arguments
// into the provider's space, and deliver a request_receive descriptor.
//
// The merge never touches the Request object (§3.4) and never copies
// it either: preset and invoke-time arguments meet in Controller-owned
// scratch — the immediates under the same write-once rule a derivation
// applies, the capabilities in one slot-sorted list — and the
// descriptor is encoded straight from there. Only a descriptor that
// must wait for a window credit is copied out.
func (c *Controller) deliverInvoke(ref cap.Ref, imms []wire.ImmArg, extra []wire.CapXfer) wire.Status {
	n, st := c.resolveOwned(ref)
	if st != wire.StatusOK {
		return st
	}
	ro, ok := n.Payload.(*reqObject)
	if !ok {
		return wire.StatusKind
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
			Ref: a.Ref, Kind: a.Kind, Rights: a.Rights, Size: a.Size, Leased: a.Leased,
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

	prov.deliverSeq++
	d.Seq, d.Tag, d.Imms = prov.deliverSeq, ro.tag, c.immScratch.bytes()
	if prov.window <= 0 {
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

// peerInvoke handles an invocation arriving from another Controller.
// The reply goes through the at-most-once cache: deliverInvoke is not
// idempotent (it delivers a descriptor to the provider), so a
// retransmitted CtrlInvoke must be answered without re-delivering.
func (c *Controller) peerInvoke(from fabric.EndpointID, m *wire.CtrlInvoke) {
	c.metrics.Invokes++
	st := c.deliverInvoke(m.Ref, m.Imms, m.Caps)
	c.ack(from, wire.CtrlAck{Token: m.Token, Status: st})
}
