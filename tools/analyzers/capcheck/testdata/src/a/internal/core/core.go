// Package core is a miniature replica of fractos/internal/core used
// to exercise the capcheck analyzer: same method-naming conventions and
// directives, none of the real machinery.
package core

type Status uint8

const StatusOK Status = 0

type Entry struct{ Rights uint8 }

type Node struct{ ID uint64 }

type Ref struct{ Obj uint64 }

type space struct{}

//fractos:cap-resolve
func (s *space) Lookup(cid uint64) (Entry, bool) { return Entry{}, true }

// fabric has a Lookup too, which establishes no authority.
type fabric struct{}

func (f *fabric) Lookup(id uint64) bool { return true }

type procState struct{ space *space }

type msg struct {
	Token uint64
	Cid   uint64
}

// Controller mirrors the real Controller's handler conventions.
type Controller struct{}

//fractos:cap-resolve
func (c *Controller) resolveEntry(ps *procState, cid uint64) (Entry, Status) {
	return Entry{}, StatusOK
}

//fractos:cap-resolve
func (c *Controller) resolveCapSlots(ps *procState, cids []uint64) ([]Entry, Status) {
	return nil, StatusOK
}

//fractos:cap-deref
func (c *Controller) resolveOwned(ref Ref) (*Node, Status) { return nil, StatusOK }

//fractos:cap-deref
func (c *Controller) revokeLocal(ref Ref) Status { return StatusOK }

func (c *Controller) complete(ps *procState, token uint64, st Status) {}

// handleGood validates the capability before dereferencing: clean.
func (c *Controller) handleGood(ps *procState, m *msg) {
	e, st := c.resolveEntry(ps, m.Cid)
	if st != StatusOK {
		c.complete(ps, m.Token, st)
		return
	}
	_ = e
	n, st := c.resolveOwned(Ref{Obj: m.Cid})
	_, _ = n, st
	c.complete(ps, m.Token, StatusOK)
}

// handleLookupGood uses a raw capability-space lookup, which also
// establishes authority: clean.
func (c *Controller) handleLookupGood(ps *procState, m *msg) {
	if _, ok := ps.space.Lookup(m.Cid); !ok {
		c.complete(ps, m.Token, Status(1))
		return
	}
	st := c.revokeLocal(Ref{Obj: m.Cid})
	c.complete(ps, m.Token, st)
}

// handleBad dereferences the tree with no capability check at all.
func (c *Controller) handleBad(ps *procState, m *msg) {
	n, st := c.resolveOwned(Ref{Obj: m.Cid}) // want `handleBad dereferences the object tree via resolveOwned before any capability validation`
	_, _ = n, st
	c.complete(ps, m.Token, StatusOK)
}

// handleLate validates only after the dereference: still a bug.
func (c *Controller) handleLate(ps *procState, m *msg) {
	st := c.revokeLocal(Ref{Obj: m.Cid}) // want `handleLate dereferences the object tree via revokeLocal before any capability validation`
	if e, st2 := c.resolveEntry(ps, m.Cid); st2 == StatusOK {
		_ = e
	}
	c.complete(ps, m.Token, st)
}

// handleWrongLookup consults a Lookup that is not the capability
// space's.
func (c *Controller) handleWrongLookup(ps *procState, f *fabric, m *msg) {
	if !f.Lookup(m.Cid) {
		return
	}
	st := c.revokeLocal(Ref{Obj: m.Cid}) // want `handleWrongLookup dereferences the object tree via revokeLocal`
	c.complete(ps, m.Token, st)
}

// handleSuppressed documents an intentional exception.
func (c *Controller) handleSuppressed(ps *procState, m *msg) {
	//fractos:capcheck-ok bootstrap path, authority established by the operator
	st := c.revokeLocal(Ref{Obj: m.Cid})
	c.complete(ps, m.Token, st)
}

// notAHandler is exempt: only handle* methods are syscall entry
// points.
func (c *Controller) notAHandler(ref Ref) Status {
	_, st := c.resolveOwned(ref)
	return st
}

// ---- slab cid-scheme cases ----

// CapID mirrors cap.CapID: generation bits over a slot index, minted
// only by Space.Install.
//
//fractos:minted
type CapID uint32

func (s *space) Install(e Entry) CapID { return CapID(1) } //fractos:capcheck-ok the real minting site lives in internal/cap; the replica needs one

//fractos:borrow
func (s *space) Peek(cid CapID) *Entry { return nil }

func (s *space) Drop(cid CapID) bool { return true }

type task struct{}

//fractos:yield
func (t *task) Sleep(d int64) {}

// Nap parks nobody.
func (t *task) Nap(d int64) {}

// handleMint forges a cid from a raw index, bypassing the generation
// fence.
func (c *Controller) handleMint(ps *procState, m *msg) {
	if _, ok := ps.space.Lookup(m.Cid); !ok {
		return
	}
	cid := CapID(m.Cid) // want `handleMint forges a capability id with a raw CapID conversion`
	_ = cid
}

// mintSuppressed documents an intentional conversion.
func (c *Controller) mintSuppressed(raw uint64) CapID {
	return CapID(raw) //fractos:capcheck-ok decoder boundary, raw field is the wire encoding of a minted cid
}

// peekAndYield retains a slab Entry pointer across a task yield: the
// slot can be recycled while parked.
func (c *Controller) peekAndYield(t *task, ps *procState, cid CapID) uint8 {
	e := ps.space.Peek(cid)
	if e == nil {
		return 0
	}
	t.Sleep(100)
	return e.Rights // want `peekAndYield uses slab Entry pointer e across a yield point`
}

// peekNoYield uses the pointer immediately: clean.
func (c *Controller) peekNoYield(t *task, ps *procState, cid CapID) uint8 {
	e := ps.space.Peek(cid)
	if e == nil {
		return 0
	}
	r := e.Rights
	t.Sleep(100)
	return r
}

// peekNap uses the pointer after a call that does not yield: clean.
func (c *Controller) peekNap(t *task, ps *procState, cid CapID) uint8 {
	e := ps.space.Peek(cid)
	t.Nap(100)
	return e.Rights
}

// peekRefetch re-Peeks after the yield: clean.
func (c *Controller) peekRefetch(t *task, ps *procState, cid CapID) uint8 {
	e := ps.space.Peek(cid)
	if e == nil {
		return 0
	}
	t.Sleep(100)
	e = ps.space.Peek(cid)
	if e == nil {
		return 0
	}
	return e.Rights
}

// handleDone mirrors handleDeliverDone's give-back: each cid the
// Process lists is a typed value off the wire (no conversion), and the
// Entry pointer is compared and dropped at once, before anything can
// recycle the slot: clean.
func (c *Controller) handleDone(ps *procState, seq uint8, back []CapID) {
	for _, cid := range back {
		if e := ps.space.Peek(cid); e != nil && e.Rights == seq {
			ps.space.Drop(cid)
		}
	}
}

// handleDoneLate checks what a delivery brought only after a nap: the
// entry under the pointer may be another delivery's by then.
func (c *Controller) handleDoneLate(t *task, ps *procState, seq uint8, cid CapID) {
	e := ps.space.Peek(cid)
	t.Sleep(100)
	if e != nil && e.Rights == seq { // want `handleDoneLate uses slab Entry pointer e across a yield point`
		ps.space.Drop(cid)
	}
}
