package core

import "fractos/internal/cap"

// Quiescence probes for the black-box suites (package core_test), which
// drive Controllers through libfractos and so cannot live in package
// core themselves.

// DeliveryState reports a managed Process's congestion window: credits
// left, deliveries awaiting their DeliverDone, and deliveries queued for
// a credit.
func (c *Controller) DeliveryState(pid cap.ProcID) (window, outstanding, queued int) {
	ps := c.procs[pid]
	return ps.window, len(ps.outstanding), len(ps.queue)
}

// CopyEngine reports the memory_copy engine's resources: free bounce
// chunks, copies waiting for a bounce pair, and copy records started
// and not yet recycled (a record outlives its copy by the RDMA
// completions the copy left on the wire).
func (c *Controller) CopyEngine() (freeChunks, waiting, live int) {
	return len(c.bounceFree), len(c.copyWait), c.copyOps.Lent()
}

// PendingCalls is the number of inter-Controller calls awaiting an answer.
func (c *Controller) PendingCalls() int { return len(c.pending) }
