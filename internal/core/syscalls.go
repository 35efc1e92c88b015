package core

import (
	"fractos/internal/cap"
	"fractos/internal/wire"
)

// handleMemCreate registers part of the Process's arena as a Memory
// object (memory_create).
func (c *Controller) handleMemCreate(ps *procState, m *wire.MemCreate) {
	if m.Size == 0 || !wire.Within(m.Base, m.Size, uint64(ps.ep.ArenaSize())) {
		c.complete(ps, m.Token, wire.StatusBounds, cap.NilCap, 0)
		return
	}
	rights := m.Perms & cap.MemRights
	node := c.tree.Create(&memObject{
		owner: ps.id, ep: ps.ep.ID, base: m.Base, size: m.Size, rights: rights,
	})
	cid, st := c.install(ps, cap.Entry{
		Ref: c.ref(node.ID), Kind: cap.KindMemory, Rights: rights, Size: m.Size,
	})
	if st != wire.StatusOK {
		c.discardObject(node.ID)
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	c.complete(ps, m.Token, wire.StatusOK, cid, m.Size)
}

// handleMemDiminish derives a narrower view of a Memory capability
// (memory_diminish). If the object lives at a peer, the derivation is
// one message to the owner.
func (c *Controller) handleMemDiminish(ps *procState, m *wire.MemDiminish) {
	e, st := c.resolveEntry(ps, m.Cid, cap.KindMemory, 0)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	entryRights := e.Rights.Diminish(m.Drop)
	if e.Ref.Ctrl == c.id {
		ref, size, rights, st := c.deriveMemLocal(e.Ref, m.Offset, m.Size, m.Drop)
		if st != wire.StatusOK {
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		cid, st := c.install(ps, cap.Entry{
			Ref: ref, Kind: cap.KindMemory, Rights: entryRights & rights, Size: size,
		})
		if st != wire.StatusOK {
			c.discardObject(ref.Obj)
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		c.complete(ps, m.Token, wire.StatusOK, cid, size)
		return
	}
	pc := c.newCall(callDeriveMem, e.Ref)
	pc.entry = cap.Entry{Ref: e.Ref, Kind: cap.KindMemory, Rights: entryRights}
	pc.off, pc.size, pc.rights = m.Offset, m.Size, m.Drop
	c.forward(pc, ps, m.Token)
}

// deriveMemLocal performs the owner-side memory derivation.
//
//fractos:cap-deref
func (c *Controller) deriveMemLocal(ref cap.Ref, off, size uint64, drop cap.Rights) (cap.Ref, uint64, cap.Rights, wire.Status) {
	n, st := c.resolveOwned(ref)
	if st != wire.StatusOK {
		return cap.Ref{}, 0, 0, st
	}
	mo, ok := n.Payload.(*memObject)
	if !ok {
		return cap.Ref{}, 0, 0, wire.StatusKind
	}
	if size == 0 || !wire.Within(off, size, mo.size) {
		return cap.Ref{}, 0, 0, wire.StatusBounds
	}
	nmo := &memObject{
		owner: mo.owner, ep: mo.ep,
		base: mo.base + off, size: size,
		rights: mo.rights.Diminish(drop),
	}
	child := c.tree.Derive(n.ID, nmo)
	if child == nil {
		return cap.Ref{}, 0, 0, wire.StatusRevoked
	}
	return c.ref(child.ID), size, nmo.rights, wire.StatusOK
}

// handleReqCreate creates a new Request provided by the calling
// Process, or derives a refined Request from an existing one
// (request_create).
func (c *Controller) handleReqCreate(ps *procState, m *wire.ReqCreate) {
	capArgs, st := c.resolveCapSlots(ps, m.Caps)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	if m.Parent == cap.NilCap {
		// New Request: the caller is the provider.
		obj := &reqObject{provider: ps.id, tag: m.Tag}
		if st := obj.applyImms(m.Imms); st != wire.StatusOK {
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		if st := obj.applyCaps(capArgs); st != wire.StatusOK {
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		node := c.tree.Create(obj)
		cid, st := c.install(ps, cap.Entry{
			Ref: c.ref(node.ID), Kind: cap.KindRequest, Rights: cap.ReqRights,
		})
		if st != wire.StatusOK {
			c.discardObject(node.ID)
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		c.complete(ps, m.Token, wire.StatusOK, cid, 0)
		return
	}

	e, st := c.resolveEntry(ps, m.Parent, cap.KindRequest, cap.Grant)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	if e.Ref.Ctrl == c.id {
		ref, st := c.deriveReqLocal(e.Ref, m.Imms, capArgs)
		if st != wire.StatusOK {
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		cid, st := c.install(ps, cap.Entry{
			Ref: ref, Kind: cap.KindRequest, Rights: e.Rights,
		})
		if st != wire.StatusOK {
			c.discardObject(ref.Obj)
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		c.complete(ps, m.Token, wire.StatusOK, cid, 0)
		return
	}
	pc := c.newCall(callDeriveReq, e.Ref)
	pc.entry = cap.Entry{Ref: e.Ref, Kind: cap.KindRequest, Rights: e.Rights}
	pc.keepImms(m.Imms)
	pc.keepCaps(capArgs)
	c.forward(pc, ps, m.Token)
}

// deriveReqLocal performs the owner-side Request derivation: the child
// inherits all arguments and may only add new ones.
//
//fractos:cap-deref
func (c *Controller) deriveReqLocal(ref cap.Ref, imms []wire.ImmArg, capArgs []wire.CapXfer) (cap.Ref, wire.Status) {
	n, st := c.resolveOwned(ref)
	if st != wire.StatusOK {
		return cap.Ref{}, st
	}
	ro, ok := n.Payload.(*reqObject)
	if !ok {
		return cap.Ref{}, wire.StatusKind
	}
	obj := ro.clone()
	if st := obj.applyImms(imms); st != wire.StatusOK {
		return cap.Ref{}, st
	}
	if st := obj.applyCaps(capArgs); st != wire.StatusOK {
		return cap.Ref{}, st
	}
	child := c.tree.Derive(n.ID, obj)
	if child == nil {
		return cap.Ref{}, wire.StatusRevoked
	}
	return c.ref(child.ID), wire.StatusOK
}

// handleCapRevtree creates a separately revocable child object
// (cap_create_revtree).
func (c *Controller) handleCapRevtree(ps *procState, m *wire.CapRevtree) {
	e, ok := ps.space.Lookup(m.Cid)
	if !ok {
		c.complete(ps, m.Token, wire.StatusNoCap, cap.NilCap, 0)
		return
	}
	if e.Ref.Ctrl == c.id {
		n, st := c.resolveOwned(e.Ref)
		if st != wire.StatusOK {
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		child := c.tree.Derive(n.ID, n.Payload)
		if child == nil {
			c.complete(ps, m.Token, wire.StatusRevoked, cap.NilCap, 0)
			return
		}
		cid, st := c.install(ps, cap.Entry{
			Ref: c.ref(child.ID), Kind: e.Kind, Rights: e.Rights, Size: e.Size,
		})
		if st != wire.StatusOK {
			c.discardObject(child.ID)
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		c.complete(ps, m.Token, wire.StatusOK, cid, 0)
		return
	}
	pc := c.newCall(callRevtree, e.Ref)
	pc.entry = cap.Entry{Ref: e.Ref, Kind: e.Kind, Rights: e.Rights, Size: e.Size}
	c.forward(pc, ps, m.Token)
}

// handleCapRevoke revokes a capability (cap_revoke): one message to
// the owner, which invalidates the object and its subtree immediately.
func (c *Controller) handleCapRevoke(ps *procState, m *wire.CapRevoke) {
	e, ok := ps.space.Lookup(m.Cid)
	if !ok {
		c.complete(ps, m.Token, wire.StatusNoCap, cap.NilCap, 0)
		return
	}
	if e.Ref.Ctrl == c.id {
		st := c.revokeLocal(e.Ref)
		ps.space.Drop(m.Cid)
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	pc := c.newCall(callRevoke, e.Ref)
	pc.cid = m.Cid
	c.forward(pc, ps, m.Token)
}

// handleCapDrop discards a capability-space entry without revoking.
func (c *Controller) handleCapDrop(ps *procState, m *wire.CapDrop) {
	if !ps.space.Drop(m.Cid) {
		c.complete(ps, m.Token, wire.StatusNoCap, cap.NilCap, 0)
		return
	}
	c.complete(ps, m.Token, wire.StatusOK, cap.NilCap, 0)
}

// handleMonitorDelegate registers a monitor_delegate callback (§3.6).
// The target object must be owned by this Controller (the caller is
// the resource owner monitoring its clients) and must not have
// children yet — the paper's stated simplification.
func (c *Controller) handleMonitorDelegate(ps *procState, m *wire.MonitorDelegate) {
	e, ok := ps.space.Lookup(m.Cid)
	if !ok {
		c.complete(ps, m.Token, wire.StatusNoCap, cap.NilCap, 0)
		return
	}
	if e.Ref.Ctrl != c.id {
		c.complete(ps, m.Token, wire.StatusBadArg, cap.NilCap, 0)
		return
	}
	n, st := c.resolveOwned(e.Ref)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	if n.HasChildren() {
		c.complete(ps, m.Token, wire.StatusBadArg, cap.NilCap, 0)
		return
	}
	n.MonitorDelegator = true
	n.DelegatorProc = ps.id
	n.DelegatorCB = m.Callback
	n.DelegateeCount = 0
	e.Monitored = true
	ps.space.Update(m.Cid, e)
	c.complete(ps, m.Token, wire.StatusOK, cap.NilCap, 0)
}

// handleMonitorReceive registers a monitor_receive callback: notify
// the caller when the capability's object is invalidated (§3.6).
func (c *Controller) handleMonitorReceive(ps *procState, m *wire.MonitorReceive) {
	e, ok := ps.space.Lookup(m.Cid)
	if !ok {
		c.complete(ps, m.Token, wire.StatusNoCap, cap.NilCap, 0)
		return
	}
	w := cap.Watcher{Proc: ps.id, Ctrl: c.id, Callback: m.Callback}
	if e.Ref.Ctrl == c.id {
		n, st := c.resolveOwned(e.Ref)
		if st != wire.StatusOK {
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		n.Watchers = append(n.Watchers, w)
		c.complete(ps, m.Token, wire.StatusOK, cap.NilCap, 0)
		return
	}
	pc := c.newCall(callWatch, e.Ref)
	pc.callback = m.Callback
	c.forward(pc, ps, m.Token)
}

// handleDeliverDone releases one congestion-window credit (§4), and the
// capabilities the delivery installed that its receiver hands back.
func (c *Controller) handleDeliverDone(ps *procState, m *wire.DeliverDone) {
	if _, ok := ps.outstanding[m.Seq]; !ok {
		return
	}
	delete(ps.outstanding, m.Seq)
	for _, cid := range m.Drop {
		if e := ps.space.Peek(cid); e != nil && e.Delivery == m.Seq {
			ps.space.Drop(cid)
		}
	}
	ps.window++
	c.drainQueue(ps)
}

// drainQueue sends queued deliveries while window credits remain.
func (c *Controller) drainQueue(ps *procState) {
	for ps.window > 0 && len(ps.queue) > 0 {
		var d *wire.Deliver
		d, ps.queue = popFront(ps.queue)
		c.sendDeliver(ps, d)
	}
}

// sendDeliver transmits a delivery, consuming a window credit.
//
//fractos:ordered
func (c *Controller) sendDeliver(ps *procState, d *wire.Deliver) {
	if ps.failed {
		return
	}
	ps.window--
	ps.outstanding[d.Seq] = struct{}{}
	c.metrics.DeliveriesSent++
	if !c.net.Send(c.ep.ID, ps.ep.ID, d) {
		// Endpoint severed between the failed check and the send: the
		// Process-failure path revokes its window and queue wholesale.
		c.metrics.SendFailed++
	}
}
