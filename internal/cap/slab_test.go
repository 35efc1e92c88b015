package cap

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"
)

// TestRevokeDeepChainIterative is the stack-safety regression for the
// iterative Revoke: a delegation chain one million levels deep must
// revoke under a deliberately small stack ceiling. The recursive walk
// this replaced grew a frame per level and died with an unrecoverable
// stack overflow long before 1e6.
func TestRevokeDeepChainIterative(t *testing.T) {
	if testing.Short() {
		t.Skip("deep-chain soak skipped in -short")
	}
	old := debug.SetMaxStack(8 << 20) // 8 MB: ~80k recursive frames at most
	defer debug.SetMaxStack(old)

	const depth = 1_000_000
	tr := NewTree()
	n := tr.Create(nil)
	root := n.ID
	for i := 1; i < depth; i++ {
		n = tr.Derive(n.ID, nil)
		if n == nil {
			t.Fatalf("Derive failed at depth %d", i)
		}
	}
	revoked := tr.Revoke(root, nil)
	if len(revoked) != depth {
		t.Fatalf("revoked %d nodes, want %d", len(revoked), depth)
	}
	if tr.LiveLen() != 0 {
		t.Fatalf("LiveLen = %d after full revocation", tr.LiveLen())
	}
	// Pre-order over a chain is root-to-leaf creation order.
	for i, nd := range revoked {
		if nd.ID != ObjectID(i+1) {
			t.Fatalf("revocation order broken at %d: got %d", i, nd.ID)
		}
	}
	// Reverse-order removal (the cleanup pass) must also be O(1)/node.
	for i := len(revoked) - 1; i >= 0; i-- {
		tr.Remove(revoked[i].ID)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after removal", tr.Len())
	}
}

// TestRevokeDepthFanoutTree pins the acceptance shape: a depth-1000
// spine where every spine node carries 10 leaf children revokes
// completely, in pre-order, under the same small stack ceiling.
func TestRevokeDepthFanoutTree(t *testing.T) {
	old := debug.SetMaxStack(8 << 20)
	defer debug.SetMaxStack(old)

	const depth, fanout = 1000, 10
	tr := NewTree()
	spine := tr.Create(nil)
	rootID := spine.ID
	want := 0
	for d := 0; d < depth; d++ {
		for f := 0; f < fanout; f++ {
			if tr.Derive(spine.ID, nil) == nil {
				t.Fatal("leaf Derive failed")
			}
			want++
		}
		if d < depth-1 {
			spine = tr.Derive(spine.ID, nil)
			want++
		}
	}
	want++ // the root itself
	revoked := tr.Revoke(rootID, nil)
	if len(revoked) != want {
		t.Fatalf("revoked %d nodes, want %d", len(revoked), want)
	}
	if tr.LiveLen() != 0 {
		t.Fatalf("LiveLen = %d after revocation", tr.LiveLen())
	}
	// Pre-order with tail-appended children visits nodes in exactly
	// creation order for this construction.
	for i, nd := range revoked {
		if nd.ID != ObjectID(i+1) {
			t.Fatalf("pre-order broken at %d: got %d", i, nd.ID)
		}
	}
}

// TestRevokeSkipsPreRevokedSubtrees: revoking an ancestor after a
// descendant subtree was already revoked must return only the newly
// invalidated nodes, exactly like the recursive walk did.
func TestRevokeSkipsPreRevokedSubtrees(t *testing.T) {
	tr := NewTree()
	root := tr.Create(nil)
	a := tr.Derive(root.ID, nil)
	aa := tr.Derive(a.ID, nil)
	b := tr.Derive(root.ID, nil)
	if got := len(tr.Revoke(a.ID, nil)); got != 2 {
		t.Fatalf("first revoke took %d nodes, want 2", got)
	}
	revoked := tr.Revoke(root.ID, nil)
	if len(revoked) != 2 {
		t.Fatalf("second revoke took %d nodes, want 2 (root, b)", len(revoked))
	}
	if revoked[0].ID != root.ID || revoked[1].ID != b.ID {
		t.Fatalf("unexpected revocation order: %d, %d", revoked[0].ID, revoked[1].ID)
	}
	_ = aa
}

// TestTreeCountersMaintained pins that Len and LiveLen are O(1)
// maintained counters that stay exact through create/derive/revoke/
// remove churn, cross-checked against a full ForEach count.
func TestTreeCountersMaintained(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		var ids []ObjectID
		ids = append(ids, tr.Create(nil).ID)
		for op := 0; op < 200; op++ {
			switch rng.Intn(4) {
			case 0, 1:
				if n := tr.Derive(ids[rng.Intn(len(ids))], nil); n != nil {
					ids = append(ids, n.ID)
				}
			case 2:
				tr.Revoke(ids[rng.Intn(len(ids))], nil)
			case 3:
				// Remove any revoked leaf (no live bookkeeping).
				id := ids[rng.Intn(len(ids))]
				if n, ok := tr.GetAny(id); ok && n.Revoked && !n.HasChildren() {
					tr.Remove(id)
				}
			}
			total, live := 0, 0
			tr.ForEach(func(n *Node) {
				total++
				if !n.Revoked {
					live++
				}
			})
			if tr.Len() != total || tr.LiveLen() != live {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeRemoveMiddleChildUnlink: the intrusive sibling unlink must
// keep the child list consistent when removing first, middle, and last
// children, pinned by the pre-order of a subsequent parent revocation.
func TestTreeRemoveMiddleChildUnlink(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		tr := NewTree()
		root := tr.Create(nil)
		kids := []*Node{
			tr.Derive(root.ID, nil), tr.Derive(root.ID, nil), tr.Derive(root.ID, nil),
		}
		tr.Revoke(kids[victim].ID, nil)
		tr.Remove(kids[victim].ID)
		revoked := tr.Revoke(root.ID, nil)
		if len(revoked) != 3 {
			t.Fatalf("victim %d: revoked %d nodes, want 3", victim, len(revoked))
		}
		want := []ObjectID{root.ID}
		for i, k := range kids {
			if i != victim {
				want = append(want, k.ID)
			}
		}
		for i, nd := range revoked {
			if nd.ID != want[i] {
				t.Fatalf("victim %d: order[%d] = %d, want %d", victim, i, nd.ID, want[i])
			}
		}
	}
}

// TestObjectIDGenerationNoAlias: a removed ObjectID must never resolve
// again, even after its slab slot is recycled by later creations — the
// generation bits in the ID fence stale Refs the way cid generations
// fence stale capability handles.
func TestObjectIDGenerationNoAlias(t *testing.T) {
	tr := NewTree()
	n := tr.Create(nil)
	stale := n.ID
	tr.Revoke(stale, nil)
	tr.Remove(stale)
	for i := 0; i < 50; i++ {
		fresh := tr.Create(nil)
		if fresh.ID == stale {
			t.Fatalf("removed ObjectID %d reissued", stale)
		}
	}
	if _, ok := tr.GetAny(stale); ok {
		t.Fatal("removed ObjectID resolves")
	}
	if tr.Revoke(stale, nil) != nil {
		t.Fatal("removed ObjectID revocable")
	}
}

// TestRekeyKeepsTheNodeAndKillsTheName: a rekeyed object resolves under
// its new ID only, and stays where it was — among its siblings, above its
// children, in creation order — whichever child of three is renamed, so a
// later revocation of the parent walks the same tree. A revoked object
// cannot be rekeyed.
func TestRekeyKeepsTheNodeAndKillsTheName(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		tr := NewTree()
		root := tr.Create(nil)
		kids := []*Node{tr.Derive(root.ID, nil), tr.Derive(root.ID, nil), tr.Derive(root.ID, nil)}
		grandchild := tr.Derive(kids[victim].ID, nil)
		old := kids[victim].ID
		nid := tr.Rekey(old)
		if nid == 0 || nid == old || kids[victim].ID != nid {
			t.Fatalf("victim %d: Rekey(%d) = %d, node says %d", victim, old, nid, kids[victim].ID)
		}
		if tr.Probe(old) != nil || tr.Probe(nid) != kids[victim] {
			t.Fatalf("victim %d: the old name resolves, or the new one does not", victim)
		}
		if tr.Derive(old, nil) != nil || tr.Revoke(old, nil) != nil {
			t.Fatalf("victim %d: the old name still derives or revokes", victim)
		}
		if !tr.Ancestor(root.ID, grandchild.ID) || grandchild.Parent != nid {
			t.Fatalf("victim %d: the grandchild lost its ancestry", victim)
		}
		var seq []ObjectID
		tr.ForEach(func(n *Node) { seq = append(seq, n.ID) })
		want := []ObjectID{root.ID, kids[0].ID, kids[1].ID, kids[2].ID, grandchild.ID}
		if !slices.Equal(seq, want) {
			t.Fatalf("victim %d: creation order %v, want %v", victim, seq, want)
		}
		want = []ObjectID{root.ID}
		for i, k := range kids {
			want = append(want, k.ID)
			if i == victim {
				want = append(want, grandchild.ID)
			}
		}
		var got []ObjectID
		for _, n := range tr.Revoke(root.ID, nil) {
			got = append(got, n.ID)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("victim %d: revocation order %v, want %v", victim, got, want)
		}
		if tr.Rekey(nid) != 0 {
			t.Fatalf("victim %d: a revoked object was rekeyed", victim)
		}
		for i := len(got) - 1; i >= 0; i-- {
			tr.Remove(got[i])
		}
		if tr.Len() != 0 {
			t.Fatalf("victim %d: %d nodes left after removing the tree", victim, tr.Len())
		}
	}
	// A root: first, last and only in creation order.
	tr := NewTree()
	a := tr.Create(nil)
	tr.Rekey(a.ID)
	b := tr.Create(nil)
	tr.Rekey(b.ID)
	tr.Rekey(a.ID)
	var seq []ObjectID
	tr.ForEach(func(n *Node) { seq = append(seq, n.ID) })
	if !slices.Equal(seq, []ObjectID{a.ID, b.ID}) {
		t.Fatalf("creation order of rekeyed roots %v, want %v", seq, []ObjectID{a.ID, b.ID})
	}
}

// TestCidGenerationAliasingProperty drives random interleavings of
// install, drop, and purge against a shadow model and asserts the
// generation contract: a cid observed dead (dropped or purged) may be
// reissued only through Drop (fd semantics — the holder surrendered
// it); a purged cid must never come back, and must never resolve to
// any entry installed later, no matter how slots recycle underneath.
func TestCidGenerationAliasingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace()
		live := map[CapID]ObjectID{} // cid -> installed payload marker
		purged := map[CapID]bool{}
		var liveIDs []CapID
		nextObj := ObjectID(1)
		refresh := func() {
			liveIDs = liveIDs[:0]
			for id := range live {
				liveIDs = append(liveIDs, id)
			}
			for i := 0; i < len(liveIDs); i++ {
				for j := i + 1; j < len(liveIDs); j++ {
					if liveIDs[j] < liveIDs[i] {
						liveIDs[i], liveIDs[j] = liveIDs[j], liveIDs[i]
					}
				}
			}
		}
		for op := 0; op < 400; op++ {
			switch rng.Intn(5) {
			case 0, 1: // install
				obj := nextObj
				nextObj++
				id := s.Install(Entry{Ref: Ref{Ctrl: 9, Obj: obj}})
				if purged[id] {
					return false // purged cid reissued
				}
				if _, taken := live[id]; taken {
					return false // live cid reissued
				}
				live[id] = obj
			case 2: // drop
				refresh()
				if len(liveIDs) == 0 {
					continue
				}
				id := liveIDs[rng.Intn(len(liveIDs))]
				if !s.Drop(id) {
					return false
				}
				delete(live, id)
			case 3: // purge one entry by ref
				refresh()
				if len(liveIDs) == 0 {
					continue
				}
				id := liveIDs[rng.Intn(len(liveIDs))]
				obj := live[id]
				if s.PurgeRefs(func(r Ref) bool { return r.Obj == obj }) != 1 {
					return false
				}
				if _, ok := s.Lookup(id); ok {
					return false
				}
				delete(live, id)
				purged[id] = true
			case 4: // single-cid purge
				refresh()
				if len(liveIDs) == 0 {
					continue
				}
				id := liveIDs[rng.Intn(len(liveIDs))]
				if !s.Purge(id) {
					return false
				}
				delete(live, id)
				purged[id] = true
			}
			// No dead cid — dropped or purged — may resolve, and every
			// live cid must resolve to its own entry.
			for id := range purged {
				if _, ok := s.Lookup(id); ok {
					return false
				}
			}
			if s.Len() != len(live) {
				return false
			}
		}
		for id, obj := range live {
			e, ok := s.Lookup(id)
			if !ok || e.Ref.Obj != obj {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCidGenerationAliasing is the fuzz-shaped version of the aliasing
// property: ops decoded from raw bytes, with the invariant that a
// purged cid never aliases a live entry checked after every step.
func FuzzCidGenerationAliasing(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 3, 0, 1, 2})
	f.Add([]byte{0, 1, 3, 3, 0, 0, 2, 1, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSpace()
		live := map[CapID]bool{}
		purged := map[CapID]bool{}
		var order []CapID // deterministic pick order
		pick := func(b byte) (CapID, bool) {
			if len(order) == 0 {
				return NilCap, false
			}
			return order[int(b)%len(order)], true
		}
		unorder := func(id CapID) {
			for i, v := range order {
				if v == id {
					order = append(order[:i], order[i+1:]...)
					return
				}
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%3, ops[i+1]
			switch op {
			case 0:
				id := s.Install(Entry{Ref: Ref{Ctrl: 1, Obj: ObjectID(i + 1)}})
				if purged[id] {
					t.Fatalf("purged cid %d reissued", id)
				}
				if live[id] {
					t.Fatalf("live cid %d reissued", id)
				}
				live[id] = true
				order = append(order, id)
			case 1:
				if id, ok := pick(arg); ok {
					s.Drop(id)
					delete(live, id)
					unorder(id)
				}
			case 2:
				if id, ok := pick(arg); ok {
					s.Purge(id)
					delete(live, id)
					purged[id] = true
					unorder(id)
				}
			}
			for id := range purged {
				if _, ok := s.Lookup(id); ok {
					t.Fatalf("purged cid %d resolves", id)
				}
			}
		}
	})
}

// TestSpaceMillionCapSoak: the slab sustains a million live
// capabilities, and sustained drop/install churn on top of that
// population reuses slots instead of growing the slab — steady-state
// memory is flat by construction when the high-water mark is flat.
func TestSpaceMillionCapSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("million-cap soak skipped in -short")
	}
	const liveCaps = 1_000_000
	s := NewSpace()
	ids := make([]CapID, liveCaps)
	for i := range ids {
		ids[i] = s.Install(Entry{Ref: Ref{Ctrl: 1, Obj: ObjectID(i + 1)}, Kind: KindMemory})
		if ids[i] == NilCap {
			t.Fatalf("Install failed at %d", i)
		}
	}
	if s.Len() != liveCaps {
		t.Fatalf("Len = %d, want %d", s.Len(), liveCaps)
	}
	highWater := s.Slots()
	if highWater != liveCaps {
		t.Fatalf("high water = %d after %d installs", highWater, liveCaps)
	}
	// Churn 2M drop+install pairs across the population: the slab must
	// not grow a single slot.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2_000_000; i++ {
		j := rng.Intn(liveCaps)
		if !s.Drop(ids[j]) {
			t.Fatalf("Drop failed at churn %d", i)
		}
		ids[j] = s.Install(Entry{Ref: Ref{Ctrl: 1, Obj: ObjectID(i)}, Kind: KindRequest})
	}
	if s.Slots() != highWater {
		t.Fatalf("slab grew under churn: %d slots, had %d", s.Slots(), highWater)
	}
	if s.Len() != liveCaps {
		t.Fatalf("Len = %d after churn, want %d", s.Len(), liveCaps)
	}
	// Purge-driven churn also recycles (generation-bumped) instead of
	// leaking slots: the pre-slab Space retired every purged slot
	// forever, growing without bound under OS-initiated purges.
	for round := 0; round < 3; round++ {
		for i := 0; i < 1000; i++ {
			j := i * 997 % liveCaps
			s.Purge(ids[j])
			ids[j] = s.Install(Entry{Ref: Ref{Ctrl: 2, Obj: ObjectID(i + 1)}})
		}
	}
	if s.Slots() != highWater {
		t.Fatalf("slab grew under purge churn: %d slots, had %d", s.Slots(), highWater)
	}
	// Steady-state churn allocates nothing: slots and free-list storage
	// are all reused.
	if avg := testing.AllocsPerRun(1000, func() {
		s.Drop(ids[0])
		ids[0] = s.Install(Entry{Ref: Ref{Ctrl: 3, Obj: 7}})
	}); avg != 0 {
		t.Errorf("steady-state churn allocates %.1f allocs/op, want 0", avg)
	}
}
