package core

import (
	"fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/wire"
)

// fabricEP converts the on-wire endpoint representation back to a
// fabric endpoint id.
func fabricEP(v uint32) fabric.EndpointID { return fabric.EndpointID(v) }

// procFailed translates a Process failure into capability revocations
// (§3.6): every object the Process provides is revoked (cascading
// through revocation trees and firing monitor callbacks), every leased
// delegatee child it held is revoked so delegators notice, and its
// capability space is destroyed.
func (c *Controller) procFailed(ps *procState) {
	if ps.failed {
		return
	}
	ps.failed = true
	c.net.Disconnect(ps.ep.ID)

	// Revoke leased delegatee children held by the failed Process.
	ps.space.ForEach(func(_ cap.CapID, e cap.Entry) {
		if e.Leased {
			c.revokeLease(e.Ref)
		}
	})

	// Revoke every root object owned/provided by the failed Process.
	var roots []cap.ObjectID
	c.tree.ForEach(func(n *cap.Node) {
		if n.Revoked {
			return
		}
		var owner cap.ProcID
		switch p := n.Payload.(type) {
		case *memObject:
			owner = p.owner
		case *reqObject:
			owner = p.provider
		default:
			return
		}
		if owner != ps.id {
			return
		}
		// Only revoke subtree roots: descendants fall with them.
		if parent, ok := c.tree.GetAny(n.Parent); ok && !parent.Revoked {
			if sameOwner(parent.Payload, ps.id) {
				return
			}
		}
		roots = append(roots, n.ID)
	})
	for _, id := range roots {
		if revoked := c.tree.Revoke(id); revoked != nil {
			c.processRevocations(revoked)
		}
	}

	// Destroy the capability space and any queued deliveries.
	ps.space = cap.NewSpace()
	ps.queue = nil
	for seq := range ps.outstanding {
		delete(ps.outstanding, seq)
	}
}

// sameOwner reports whether an object payload belongs to pid.
func sameOwner(payload interface{}, pid cap.ProcID) bool {
	switch p := payload.(type) {
	case *memObject:
		return p.owner == pid
	case *reqObject:
		return p.provider == pid
	}
	return false
}

// FailProcess injects a Process failure, as the owner Controller would
// detect it when the Process's channel is severed. Exposed for the
// node-monitoring service and failure tests.
func (c *Controller) FailProcess(pid cap.ProcID) bool {
	ps, ok := c.procs[pid]
	if !ok || ps.failed {
		return false
	}
	c.procFailed(ps)
	return true
}

// Crash takes the Controller down abruptly: its endpoint is severed
// and all state is lost. Per §3.6, all its Processes are considered
// failed and their capabilities revoked; peers learn about it from the
// external node-monitoring service via AnnounceEpoch after Reboot.
//
// Every in-flight cross-Controller call this instance issued is
// resolved with StatusAborted, in ascending token order: a crash must
// not leak pending continuations (a memory copy waiting for its
// validation would otherwise hold its record and its place forever).
func (c *Controller) Crash() {
	if c.down {
		return
	}
	c.down = true
	c.net.Disconnect(c.ep.ID)
	for _, ps := range c.procs {
		if !ps.failed {
			ps.failed = true
			c.net.Disconnect(ps.ep.ID)
		}
	}
	c.abortAllPending()
}

// Reboot brings a crashed Controller back with a fresh epoch and empty
// state, and announces the new epoch to all peers. Capabilities minted
// under the previous epoch are now implicitly revoked everywhere:
// eagerly purged by peers, and rejected on use by the stale-epoch
// check (§3.6).
func (c *Controller) Reboot() {
	if !c.down {
		return
	}
	c.epoch++
	c.tree = cap.NewTree()
	c.procs = make(map[cap.ProcID]*procState)
	c.byEP = make(map[fabric.EndpointID]*procState)
	c.pending = make(map[uint64]*pendingCall)
	// The at-most-once caches died with the instance: replies recorded
	// before the crash reference state that no longer exists (the sender
	// aborts their retransmissions on the epoch announcement). So did the
	// round-trip estimates: the new instance knows nothing of its paths.
	for _, p := range c.peers {
		p.dedup.reset()
		p.rtt = rttEstimator{}
	}
	c.down = false
	c.net.Reconnect(c.ep.ID)
	c.AnnounceEpoch()
}

// AnnounceEpoch broadcasts the Controller's current epoch, normally on
// behalf of the external monitoring service (Zookeeper in the paper).
// Epoch announcements are fire-and-forget but idempotent and
// monotonic; the heartbeat NodeWatch re-announces on every suspicion
// cycle, so a frame lost here is repaired by the detector.
func (c *Controller) AnnounceEpoch() {
	for _, peer := range c.peerIDs {
		c.send(c.peers[peer].ep, &wire.CtrlEpoch{Ctrl: c.id, Epoch: c.epoch})
	}
}

// Down reports whether the Controller is crashed.
func (c *Controller) Down() bool { return c.down }
