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
