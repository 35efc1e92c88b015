package core

import (
	"fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/wire"
)

// peerCleanup purges capability-space entries referencing revoked
// objects and acknowledges, so the owner can erase the revoked stubs
// (the asynchronous, off-critical-path cleanup of §3.5).
func (c *Controller) peerCleanup(from fabric.EndpointID, m *wire.CtrlCleanup) {
	c.metrics.EntriesPurged += int64(c.purge(m.Refs))
	c.ack(from, m.Token, wire.CtrlAck{Status: wire.StatusOK})
}

// purge removes the entries of every capability space that name one of
// refs, and reports how many it removed.
func (c *Controller) purge(refs []cap.Ref) (n int) {
	clear(c.dead)
	for _, r := range refs {
		c.dead[r] = true
	}
	for _, ps := range c.procs {
		n += ps.space.PurgeRefs(c.isDead)
	}
	return n
}

func (c *Controller) isDead(r cap.Ref) bool { return c.dead[r] }

// peerEpoch records a peer's new epoch. Entries minted under older
// epochs of that Controller are implicitly revoked: purge them now and
// reject them on use (§3.6's failure-to-revocation translation).
// Outstanding calls to the peer abort, and what was learned about the
// previous incarnation goes with it: the replies cached for it and the
// round-trip estimate.
func (c *Controller) peerEpoch(m *wire.CtrlEpoch) {
	p, ok := c.peers[m.Ctrl]
	if !ok || m.Epoch <= p.epoch {
		return
	}
	p.epoch = m.Epoch
	for _, ps := range c.procs {
		ps.space.PurgeRefs(func(r cap.Ref) bool {
			return r.Ctrl == m.Ctrl && r.Epoch < m.Epoch
		})
	}
	c.abortPendingTo(m.Ctrl)
	p.dedup.reset()
	p.rtt = rttEstimator{}
}

// revokeLocal invalidates an object owned here and its whole
// revocation subtree, firing monitor callbacks, scheduling the cleanup
// broadcast, and finally erasing the revoked nodes.
func (c *Controller) revokeLocal(ref cap.Ref) wire.Status {
	if ref.Ctrl != c.id {
		return wire.StatusUnknownObj
	}
	if ref.Epoch != c.epoch {
		return wire.StatusStale
	}
	if !c.revokeObject(ref.Obj) {
		return wire.StatusRevoked
	}
	return wire.StatusOK
}

// revokeObject revokes an object and its subtree into the cleanup batch;
// false if the object is unknown or already revoked.
func (c *Controller) revokeObject(id cap.ObjectID) bool {
	start := len(c.cleanupStubs)
	c.cleanupStubs = c.tree.Revoke(id, c.cleanupStubs)
	if len(c.cleanupStubs) > start {
		c.processRevocations(start)
	}
	return len(c.cleanupStubs) > start
}

// processRevocations enqueues the refs of c.cleanupStubs[start:] on the
// cleanup batch, then fires monitors and purges local entries synchronously.
// The actual broadcast is deferred to flushCleanup so that a burst of
// revocations at one virtual instant — a Process failure cascading
// through every lease and owned subtree — coalesces into ONE
// CtrlCleanup message per peer instead of a per-subtree revocation
// storm.
func (c *Controller) processRevocations(start int) {
	revoked := c.cleanupStubs[start:]
	c.metrics.Revocations += int64(len(revoked))
	refs := len(c.cleanupRefs)
	for _, n := range revoked {
		c.cleanupRefs = append(c.cleanupRefs, c.ref(n.ID))
	}
	for _, n := range revoked {
		// monitor_receive watchers.
		for _, w := range n.Watchers {
			c.notifyWatcher(w, wire.MonitorCBReceive)
		}
		n.Watchers = nil
		if ro, ok := n.Payload.(*reqObject); ok {
			c.answerInvoker(ro, wire.StatusAborted)
		}
		// monitor_delegate accounting: a delegatee child dying
		// decrements its parent's counter.
		if n.MonitorDelegatee {
			if p, ok := c.tree.GetAny(n.Parent); ok && p.MonitorDelegator {
				p.DelegateeCount--
				if p.DelegateeCount == 0 {
					c.notifyWatcher(cap.Watcher{
						Proc: p.DelegatorProc, Ctrl: c.id, Callback: p.DelegatorCB,
					}, wire.MonitorCBDelegate)
				}
			}
		}
	}

	// Purge local capability spaces now; remote ones via broadcast.
	c.purge(c.cleanupRefs[refs : refs+len(revoked)])
	if !c.cleanupArmed {
		c.cleanupArmed = true
		c.k.AfterCall(0, (*cleanupFlush)(c))
	}
}

// cleanupFlush is the Controller as its cleanup flush's event target.
type cleanupFlush Controller

func (f *cleanupFlush) Fire() { (*Controller)(f).flushCleanup() }

// flushCleanup drains the cleanup batch accumulated at the current
// virtual instant: one coalesced CtrlCleanup per peer carrying every
// ref revoked since the last flush. The revoked stubs are erased only
// after every peer has confirmed it purged its references — until then
// the few-bytes stubs remain, exactly as §3.5 describes. Peers
// observed dead (epoch bump) resolve their outstanding calls as
// aborted, which also counts: their state is gone wholesale.
func (c *Controller) flushCleanup() {
	c.cleanupArmed = false
	b := c.batches.Get() // the batch takes the lists, the Controller the batch's storage
	b.refs, c.cleanupRefs = c.cleanupRefs, b.refs[:0]
	b.stubs, c.cleanupStubs = c.cleanupStubs, b.stubs[:0]
	b.remaining = len(c.peers)
	if c.down || len(b.stubs) == 0 {
		// A crash between enqueue and flush loses the batch with the
		// rest of the instance's state; the reboot's epoch announcement
		// purges peers wholesale instead.
		c.putBatch(b, false)
		return
	}
	c.metrics.CleanupsSent++
	if b.remaining == 0 {
		c.putBatch(b, true)
		return
	}
	for _, peer := range c.peerIDs {
		pc := c.newCall(callCleanup, cap.Ref{Ctrl: peer})
		pc.batch = b
		c.call(pc)
	}
}

// putBatch recycles a cleanup batch, erasing its revoked nodes first,
// children before parents, if remove.
func (c *Controller) putBatch(b *cleanupBatch, remove bool) {
	for i := len(b.stubs) - 1; i >= 0 && remove; i-- {
		c.tree.Remove(b.stubs[i].ID)
	}
	clear(b.stubs)
	b.refs, b.stubs = b.refs[:0], b.stubs[:0]
	c.batches.Put(b)
}

// notifyWatcher routes a monitor callback to its Process, locally or
// via the managing Controller.
//
//fractos:ordered
func (c *Controller) notifyWatcher(w cap.Watcher, kind uint8) {
	c.metrics.MonitorsFired++
	if w.Ctrl == c.id {
		c.notifyProc(w.Proc, w.Callback, kind)
		return
	}
	if p, ok := c.peers[w.Ctrl]; ok {
		// A crashed peer's reboot announcement revokes the watched
		// object's world anyway.
		c.send(p.ep, &wire.CtrlNotify{Proc: w.Proc, Callback: w.Callback, Kind: kind})
	}
}

// notifyProc sends a monitor callback to a Process we manage: a watcher
// of an object of ours, or one a peer names in a CtrlNotify.
func (c *Controller) notifyProc(pid cap.ProcID, callback uint64, kind uint8) {
	ps, ok := c.procs[pid]
	if !ok || ps.failed {
		return
	}
	// A watcher severed mid-failure has its own revocation cascade in
	// flight: the callback is moot.
	c.send(ps.ep.ID, &wire.MonitorCB{Callback: callback, Kind: kind})
}
