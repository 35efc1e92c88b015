// Package core exercises the statuscheck analyzer: the
// complete-exactly-once protocol of syscall handlers.
package core

import "wire"

type proc struct{ id uint32 }

// Controller mimics the dispatch surface of the real internal/core.
type Controller struct{ peers map[uint32]bool }

//fractos:completes 1
func (c *Controller) complete(ps *proc, token uint64, st wire.Status) {}

type pendingCall struct{ kind int }

// forward hands the completion duty to a pending-call record.
//
//fractos:completes 1
func (c *Controller) forward(pc *pendingCall, ps *proc, token uint64) {}

// park looks like forward but does not take the completion duty over.
func (c *Controller) park(pc *pendingCall, ps *proc, token uint64) {}

// call completes a record on its failure path, yet a handler that
// issues one still owes its own completion.
//
//fractos:completes 0
func (c *Controller) call(pc *pendingCall, ps *proc) {
	if pc.kind == 0 {
		c.complete(ps, 0, wire.StatusPerm)
	}
}

//fractos:runs-once
func (c *Controller) Spawn(name string, fn func()) {}

// handleGoodBranches completes on both arms.
func (c *Controller) handleGoodBranches(ps *proc, m *wire.MemCreate) {
	if m.Bytes == 0 {
		c.complete(ps, m.Token, wire.StatusPerm)
		return
	}
	c.complete(ps, m.Token, wire.StatusOK)
}

// handleGoodSwitch completes in every case including default.
func (c *Controller) handleGoodSwitch(ps *proc, m *wire.MemCreate) {
	switch m.Bytes {
	case 0:
		c.complete(ps, m.Token, wire.StatusPerm)
	case 1:
		c.complete(ps, m.Token, wire.StatusOK)
	default:
		c.complete(ps, m.Token, wire.StatusOK)
	}
}

// handleGoodForward passes the completion duty to a pending-call
// record, whose continuation the machinery runs exactly once.
func (c *Controller) handleGoodForward(ps *proc, m *wire.MemCreate) {
	if m.Bytes == 0 {
		c.complete(ps, m.Token, wire.StatusPerm)
		return
	}
	c.forward(&pendingCall{}, ps, m.Token)
}

// handleBadPark parks a record in a function that is not annotated as
// taking the duty over, and never completes.
func (c *Controller) handleBadPark(ps *proc, m *wire.MemCreate) { // want `handleBadPark can fall off the end having completed 0 times`
	c.park(&pendingCall{}, ps, m.Token)
}

// handleBadForward completes and also forwards the duty.
func (c *Controller) handleBadForward(ps *proc, m *wire.MemCreate) { // want `handleBadForward can fall off the end having completed 2\+ times`
	c.complete(ps, m.Token, wire.StatusOK)
	c.forward(&pendingCall{}, ps, m.Token)
}

// finishSyscall is the continuation forward defers to: every kind
// must complete exactly once.
//
//fractos:owes-completion
func (c *Controller) finishSyscall(pc *pendingCall, ps *proc, token uint64) { // want `finishSyscall can fall off the end having completed 0 or 1 times`
	switch pc.kind {
	case 1:
		c.complete(ps, token, wire.StatusOK)
	case 2:
		// forgot to complete
	default:
		c.complete(ps, token, wire.StatusPerm)
	}
}

// handleGoodSpawn hands completion to a spawned task that runs a
// same-package helper completing exactly once.
func (c *Controller) handleGoodSpawn(ps *proc, m *wire.MemCreate) {
	c.Spawn("copy", func() {
		c.runCopy(ps, m.Token)
	})
}

func (c *Controller) runCopy(ps *proc, token uint64) {
	if token == 0 {
		c.complete(ps, token, wire.StatusPerm)
		return
	}
	c.complete(ps, token, wire.StatusOK)
}

// handleDone owes no completion: DeliverDone carries no Token, with or
// without a list of capabilities to take back.
func (c *Controller) handleDone(ps *proc, m *wire.DeliverDone) {
	for _, cid := range m.Drop {
		_ = cid
	}
}

// handleBadRange refuses a range that does not fit and forgets that the
// refusal is a completion too.
func (c *Controller) handleBadRange(ps *proc, m *wire.MemCopy) {
	if m.SrcOff > m.Len {
		return // want `this return path has completed 0 times`
	}
	c.complete(ps, m.Token, wire.StatusOK)
}

// handleGoodCall issues an internal call and completes on its own.
func (c *Controller) handleGoodCall(ps *proc, m *wire.MemCreate) {
	c.call(&pendingCall{}, ps)
	c.complete(ps, m.Token, wire.StatusOK)
}

//fractos:completion-ok completion happens in the fabric layer for this op
func (c *Controller) handleWaived(ps *proc, m *wire.MemCreate) {
	_ = m.Token
}

// handleBadMissing forgets to complete on the fall-through path.
func (c *Controller) handleBadMissing(ps *proc, m *wire.MemCreate) { // want `handleBadMissing can fall off the end having completed 0 times`
	if m.Bytes == 0 {
		c.complete(ps, m.Token, wire.StatusPerm)
		return
	}
}

// handleBadDouble completes twice on the straight-line path.
func (c *Controller) handleBadDouble(ps *proc, m *wire.MemCreate) { // want `handleBadDouble can fall off the end having completed 2\+ times`
	c.complete(ps, m.Token, wire.StatusOK)
	c.complete(ps, m.Token, wire.StatusOK)
}

// handleBadReturn returns early without completing.
func (c *Controller) handleBadReturn(ps *proc, m *wire.MemCreate) {
	if m.Bytes == 0 {
		return // want `this return path has completed 0 times`
	}
	c.complete(ps, m.Token, wire.StatusOK)
}

// handleBadLoop may complete zero or many times across iterations.
func (c *Controller) handleBadLoop(ps *proc, m *wire.MemCreate) {
	for i := uint64(0); i < m.Bytes; i++ { // want `completion inside a loop may run zero or many times`
		if i == m.Token {
			c.complete(ps, m.Token, wire.StatusOK)
		}
	}
}

// handleGoodLoop completes after the loop; the loop body only
// accumulates, so it is fine.
func (c *Controller) handleGoodLoop(ps *proc, m *wire.MemCreate) {
	total := uint64(0)
	for i := uint64(0); i < m.Bytes; i++ {
		total += i
	}
	c.complete(ps, m.Token, wire.StatusOK)
	_ = total
}

// handleBadSelect completes in one select case and again after the
// select.
func (c *Controller) handleBadSelect(ps *proc, m *wire.MemCreate, ready chan bool) { // want `handleBadSelect can fall off the end having completed 1 or 2\+ times`
	select {
	case <-ready:
		c.complete(ps, m.Token, wire.StatusOK)
	case ready <- true:
	}
	c.complete(ps, m.Token, wire.StatusOK)
}

// refused completes with a refusal when the request is empty.
func (c *Controller) refused(ps *proc, m *wire.MemCreate) bool {
	c.complete(ps, m.Token, wire.StatusPerm)
	return m.Bytes == 0
}

// handleBadTag completes in the switch tag and again in every case.
func (c *Controller) handleBadTag(ps *proc, m *wire.MemCreate) { // want `handleBadTag can fall off the end having completed 2\+ times`
	switch c.refused(ps, m) {
	case true:
		c.complete(ps, m.Token, wire.StatusPerm)
	default:
		c.complete(ps, m.Token, wire.StatusOK)
	}
}

// handleBadDefer hides the completion in a defer.
func (c *Controller) handleBadDefer(ps *proc, m *wire.MemCreate) {
	defer c.complete(ps, m.Token, wire.StatusOK) // want `completion inside defer is not analyzable`
}
