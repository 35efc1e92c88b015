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
	c.grant(ps, m.Token, cap.Entry{
		Ref: c.ref(node.ID), Kind: cap.KindMemory, Rights: rights, Size: m.Size,
	}, m.Size)
}

// handleMemDiminish derives a narrower view of a Memory capability
// (memory_diminish): one question to the owner.
func (c *Controller) handleMemDiminish(ps *procState, m *wire.MemDiminish) {
	e, st := c.resolveEntry(ps, m.Cid, cap.KindMemory, 0)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	pc := c.newCall(callDeriveMem, e.Ref)
	pc.entry = cap.Entry{Ref: e.Ref, Kind: cap.KindMemory, Rights: e.Rights.Diminish(m.Drop)}
	pc.off, pc.size, pc.rights = m.Offset, m.Size, m.Drop
	c.forward(pc, ps, m.Token)
}

// ownDeriveMem is the owner's memory_diminish: a child Memory object
// over size bytes at off in ref's window, without the rights in drop.
func (c *Controller) ownDeriveMem(ref cap.Ref, off, size uint64, drop cap.Rights) wire.CtrlAck {
	n, st := c.resolveOwned(ref)
	if st != wire.StatusOK {
		return wire.CtrlAck{Status: st}
	}
	mo, ok := n.Payload.(*memObject)
	if !ok {
		return wire.CtrlAck{Status: wire.StatusKind}
	}
	if size == 0 || !wire.Within(off, size, mo.size) {
		return wire.CtrlAck{Status: wire.StatusBounds}
	}
	nmo := &memObject{
		owner: mo.owner, ep: mo.ep,
		base: mo.base + off, size: size,
		rights: mo.rights.Diminish(drop),
	}
	a := c.derive(n, nmo)
	if a.Status == wire.StatusOK {
		a.Size, a.Rights = size, nmo.rights
	}
	return a
}

// derive makes payload a child object of n, in n's revocation subtree,
// and answers with its name.
func (c *Controller) derive(n *cap.Node, payload any) wire.CtrlAck {
	child := c.tree.Derive(n.ID, payload)
	if child == nil {
		return wire.CtrlAck{Status: wire.StatusRevoked}
	}
	return wire.CtrlAck{Status: wire.StatusOK, Obj: child.ID, Epoch: c.epoch}
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
		st := obj.applyImms(m.Imms)
		if st == wire.StatusOK {
			st = obj.applyCaps(capArgs)
		}
		if st != wire.StatusOK {
			c.complete(ps, m.Token, st, cap.NilCap, 0)
			return
		}
		c.grant(ps, m.Token, cap.Entry{
			Ref: c.ref(c.tree.Create(obj).ID), Kind: cap.KindRequest, Rights: cap.ReqRights,
		}, 0)
		return
	}

	e, st := c.resolveEntry(ps, m.Parent, cap.KindRequest, cap.Grant)
	if st != wire.StatusOK {
		c.complete(ps, m.Token, st, cap.NilCap, 0)
		return
	}
	pc := c.newCall(callDeriveReq, e.Ref)
	pc.entry = cap.Entry{Ref: e.Ref, Kind: cap.KindRequest, Rights: e.Rights}
	pc.keepImms(m.Imms)
	pc.keepCaps(capArgs)
	c.forward(pc, ps, m.Token)
}

// ownDeriveReq is the owner's Request derivation: the child inherits
// all arguments and may only add new ones.
func (c *Controller) ownDeriveReq(ref cap.Ref, imms []wire.ImmArg, capArgs []wire.CapXfer) wire.CtrlAck {
	n, st := c.resolveOwned(ref)
	if st != wire.StatusOK {
		return wire.CtrlAck{Status: st}
	}
	ro, ok := n.Payload.(*reqObject)
	if !ok {
		return wire.CtrlAck{Status: wire.StatusKind}
	}
	obj := ro.clone()
	st = obj.applyImms(imms)
	if st == wire.StatusOK {
		st = obj.applyCaps(capArgs)
	}
	if st != wire.StatusOK {
		return wire.CtrlAck{Status: st}
	}
	return c.derive(n, obj)
}

// handleCapRevtree creates a separately revocable child object
// (cap_create_revtree).
func (c *Controller) handleCapRevtree(ps *procState, m *wire.CapRevtree) {
	e, ok := ps.space.Lookup(m.Cid)
	if !ok {
		c.complete(ps, m.Token, wire.StatusNoCap, cap.NilCap, 0)
		return
	}
	pc := c.newCall(callRevtree, e.Ref)
	pc.entry = cap.Entry{Ref: e.Ref, Kind: e.Kind, Rights: e.Rights, Size: e.Size}
	c.forward(pc, ps, m.Token)
}

// ownRevtree is the owner's cap_create_revtree: a child sharing ref's
// object, revocable on its own.
func (c *Controller) ownRevtree(ref cap.Ref) wire.CtrlAck {
	n, st := c.resolveOwned(ref)
	if st != wire.StatusOK {
		return wire.CtrlAck{Status: st}
	}
	return c.derive(n, n.Payload)
}

// handleCapRevoke revokes a capability (cap_revoke): one question to
// the owner, which invalidates the object and its subtree immediately.
func (c *Controller) handleCapRevoke(ps *procState, m *wire.CapRevoke) {
	e, ok := ps.space.Lookup(m.Cid)
	if !ok {
		c.complete(ps, m.Token, wire.StatusNoCap, cap.NilCap, 0)
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
	pc := c.newCall(callWatch, e.Ref)
	pc.callback = m.Callback
	c.forward(pc, ps, m.Token)
}

// ownWatch is the owner's monitor_receive: w is told when ref's object
// is invalidated.
func (c *Controller) ownWatch(ref cap.Ref, w cap.Watcher) wire.CtrlAck {
	n, st := c.resolveOwned(ref)
	if st == wire.StatusOK {
		n.Watchers = append(n.Watchers, w)
	}
	return wire.CtrlAck{Status: st}
}

// handleDeliverDone drops the capabilities the receiver hands back and
// releases the delivery's window credit (§4): a reply holds none.
func (c *Controller) handleDeliverDone(ps *procState, m *wire.DeliverDone) {
	for _, cid := range m.Drop {
		if e := ps.space.Peek(cid); e != nil && e.Delivery == m.Seq {
			ps.space.Drop(cid)
		}
	}
	if _, ok := ps.outstanding[m.Seq]; !ok {
		return
	}
	delete(ps.outstanding, m.Seq)
	ps.window++
	for ps.window > 0 && len(ps.queue) > 0 {
		var d *wire.Deliver
		d, ps.queue = popFront(ps.queue)
		c.sendDeliver(ps, d)
	}
}

// sendDeliver transmits a delivery; one that is not a reply takes a credit.
//
//fractos:ordered
func (c *Controller) sendDeliver(ps *procState, d *wire.Deliver) {
	if ps.failed {
		return
	}
	if d.Tag&wire.ReplyTag == 0 {
		ps.window--
		ps.outstanding[d.Seq] = struct{}{}
	}
	c.metrics.DeliveriesSent++
	// Severed between the failed check and the send, the Process's
	// failure path revokes its window and queue wholesale.
	c.send(ps.ep.ID, d)
}
