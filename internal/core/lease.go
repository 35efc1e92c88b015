package core

import (
	"sort"

	"fractos/internal/cap"
	"fractos/internal/wire"
)

// Lease GC: the background virtual-time task that expires Leased
// capability entries (monitor_delegatee children, §3.6) whose holders
// neither used nor dropped them within cfg.LeaseTTL.
//
// A lease normally dies in one of two ways: the holder drops it
// (cap_drop), or the holder fails and procFailed revokes it. The GC
// covers the third case — a holder that is alive but has abandoned the
// lease (hung worker, forgotten handle) — by firing the exact same
// failure-translation path the §3.6 model prescribes: revoke the
// delegatee child so the delegator's monitor_delegate callback
// observes the loss. Because expiries reaped in one tick enqueue on
// the shared cleanup batch (processRevocations), a sweep that reaps a
// thousand leases still broadcasts ONE coalesced CtrlCleanup per peer,
// not a revocation storm.
//
// The timer is self-quiescing: it arms when a lease-stamped entry is
// installed and disarms once a full sweep cycle over every managed
// capability space finds no leases left. A Controller with
// cfg.LeaseTTL unset never schedules a single GC event, so deployments
// without leasing produce byte-identical traces to builds without the
// GC.

// expiredLease is one reaping decision deferred out of the sweep, so
// revocations never mutate a space mid-Sweep.
type expiredLease struct {
	ps  *procState
	cid cap.CapID
	ref cap.Ref
}

// noteLeaseInstalled records that a lease-stamped entry entered some
// managed space: restart the clean-cycle count and make sure the GC
// timer is running.
func (c *Controller) noteLeaseInstalled() {
	c.leaseClean = 0
	c.armLeaseGC()
}

// armLeaseGC schedules the next GC tick if leasing is configured and
// the timer is idle.
func (c *Controller) armLeaseGC() {
	if c.leaseArmed || c.cfg.LeaseTTL <= 0 {
		return
	}
	c.leaseArmed = true
	c.k.After(DefaultLeaseGCInterval, c.leaseGCTick)
}

// leaseGCTick sweeps up to DefaultLeaseGCBatch capability-space slots
// across the managed Processes (in sorted pid order, resuming each
// space at its own cursor) and reaps every lease whose deadline has
// passed. Bounded batches keep a tick's work independent of space
// size: a million-entry space is swept a slice per tick rather than
// stalling the Controller for a full scan.
func (c *Controller) leaseGCTick() {
	c.leaseArmed = false
	if c.down {
		// Leases died with the instance; a post-reboot install re-arms.
		return
	}
	now := int64(c.k.Now())

	pids := c.leasePids[:0]
	for pid := range c.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	c.leasePids = pids

	budget := DefaultLeaseGCBatch
	swept, total := 0, 0
	sawLease := false
	var expired []expiredLease
	for _, pid := range pids {
		ps := c.procs[pid]
		if ps.failed {
			continue
		}
		slots := ps.space.Slots()
		total += slots
		n := slots
		if rest := budget - swept; n > rest {
			n = rest
		}
		if n <= 0 {
			continue
		}
		swept += n
		ps.space.Sweep(&ps.gcCursor, n, func(cid cap.CapID, e *cap.Entry) {
			if e.Expire == 0 {
				return
			}
			sawLease = true
			if e.Expire <= now {
				expired = append(expired, expiredLease{ps: ps, cid: cid, ref: e.Ref})
			}
		})
	}

	for _, x := range expired {
		// Re-check liveness: an earlier expiry in this same batch can
		// revoke a shared ancestor and purge this entry with it.
		e, ok := x.ps.space.Lookup(x.cid)
		if !ok || e.Expire == 0 || e.Expire > now {
			continue
		}
		if x.ref.Ctrl == c.id {
			// Owner-local lease: revoke the delegatee child. This fires
			// the delegator's monitor callback and purges every local
			// entry referencing it (including this one); the cleanup
			// batch coalesces the broadcast. A non-OK status means the
			// child was already gone — count only reaps that took.
			if st := c.revokeLocal(x.ref); st == wire.StatusOK {
				c.metrics.LeasesExpired++
			}
			continue
		}
		c.metrics.LeasesExpired++
		// Remote owner: purge the local entry (generation-bumped — the
		// holder may still cache the cid) and ask the owner to revoke
		// the delegatee child. A failed call is fine: the owner's death
		// revokes its world via the epoch announcement anyway.
		x.ps.space.Purge(x.cid)
		c.revokeRemoteLease(x.ref)
	}

	// Self-quiescing rearm: stop only after sweeping one full cycle
	// over every space without seeing a single lease; otherwise keep
	// ticking. noteLeaseInstalled restarts the cycle count, so a lease
	// installed while the timer runs can never be missed.
	if sawLease {
		c.leaseClean = 0
	} else {
		c.leaseClean += swept
	}
	if c.leaseClean >= total {
		return
	}
	c.armLeaseGC()
}
