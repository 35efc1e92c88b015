package cap

// Purge removes one cid the way PurgeRefs removes matching entries,
// without scanning the space: tests churn single slots through the
// generation-bump rule with it.
func (s *Space) Purge(id CapID) bool {
	sl := s.lookupSlot(id)
	if sl == nil {
		return false
	}
	s.purge(sl, uint32(id)&capIdxMask-1)
	return true
}

// Get returns the node for id if it exists and is not revoked.
func (t *Tree) Get(id ObjectID) (*Node, bool) {
	n := t.probe(id)
	if n == nil || n.Revoked {
		return nil, false
	}
	return n, true
}

// Ancestor reports whether anc is id itself or one of its ancestors.
func (t *Tree) Ancestor(anc, id ObjectID) bool {
	for id != 0 {
		if id == anc {
			return true
		}
		n := t.probe(id)
		if n == nil {
			return false
		}
		id = n.Parent
	}
	return false
}

// Slots reports the slab's high-water slot count — the number of slot
// positions ever allocated, reused or not. Soak tests use it to prove
// churn reuses slots instead of growing the slab.
func (s *Space) Slots() int { return int(s.next) }
