package core

// Quiescence probes for the black-box suites (package core_test), which
// drive Controllers through libfractos and so cannot live in package
// core themselves.

// CopyEngine reports the memory_copy engine's resources: free bounce
// chunks, copies waiting for a bounce pair, and copy records started
// and not yet recycled (a record outlives its copy by the RDMA
// completions the copy left on the wire).
func (c *Controller) CopyEngine() (freeChunks, waiting, live int) {
	return len(c.bounceFree), len(c.copyWait), c.copyOps.Lent()
}

// PendingCalls is the number of inter-Controller calls awaiting an answer.
func (c *Controller) PendingCalls() int { return len(c.pending) }
