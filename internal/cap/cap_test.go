package cap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRightsString(t *testing.T) {
	cases := []struct {
		r    Rights
		want string
	}{
		{0, "----"},
		{Read, "r---"},
		{Read | Write, "rw--"},
		{Invoke | Grant, "--ig"},
		{All, "rwig"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Rights(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRightsHas(t *testing.T) {
	r := Read | Grant
	if !r.Has(Read) || !r.Has(Grant) || !r.Has(Read|Grant) {
		t.Error("Has should accept subsets")
	}
	if r.Has(Write) || r.Has(Read|Write) {
		t.Error("Has should reject non-subsets")
	}
	if !r.Has(0) {
		t.Error("every rights value has the empty set")
	}
}

// Property: diminish never adds rights, is idempotent, and dropping
// everything yields the empty set.
func TestDiminishMonotone(t *testing.T) {
	f := func(r, drop uint8) bool {
		orig := Rights(r) & All
		dim := orig.Diminish(Rights(drop))
		if dim&^orig != 0 {
			return false // gained a right
		}
		if dim.Diminish(Rights(drop)) != dim {
			return false // not idempotent
		}
		return orig.Diminish(All) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceInstallLookupDrop(t *testing.T) {
	s := NewSpace()
	e := Entry{Ref: Ref{Ctrl: 1, Obj: 42}, Kind: KindMemory, Rights: Read, Size: 100}
	id := s.Install(e)
	if id == NilCap {
		t.Fatal("Install returned NilCap")
	}
	got, ok := s.Lookup(id)
	if !ok || got.Ref.Obj != 42 || got.Size != 100 {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if !s.Drop(id) {
		t.Fatal("Drop failed")
	}
	if _, ok := s.Lookup(id); ok {
		t.Fatal("entry survived Drop")
	}
	if s.Drop(id) {
		t.Fatal("double Drop succeeded")
	}
}

func TestSpaceSlotReuse(t *testing.T) {
	s := NewSpace()
	a := s.Install(Entry{Kind: KindMemory})
	b := s.Install(Entry{Kind: KindMemory})
	s.Drop(a)
	c := s.Install(Entry{Kind: KindRequest})
	if c != a {
		t.Errorf("expected slot reuse: got %d, want %d", c, a)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	_ = b
}

func TestSpaceUpdate(t *testing.T) {
	s := NewSpace()
	id := s.Install(Entry{Kind: KindMemory, Rights: All})
	if !s.Update(id, Entry{Kind: KindMemory, Rights: Read}) {
		t.Fatal("Update failed")
	}
	e, _ := s.Lookup(id)
	if e.Rights != Read {
		t.Errorf("Rights = %v, want Read", e.Rights)
	}
	if s.Update(999, Entry{}) {
		t.Error("Update of missing cid succeeded")
	}
}

// TestPurgedSlotsNeverRecycled: OS-initiated purges tombstone the
// slot; only explicit Drops recycle. A stale cid held across a purge
// must never alias a later capability.
func TestPurgedSlotsNeverRecycled(t *testing.T) {
	s := NewSpace()
	stale := s.Install(Entry{Ref: Ref{Ctrl: 1, Obj: 1}})
	s.PurgeRefs(func(r Ref) bool { return r.Obj == 1 })
	// Install many new entries: none may land on the stale cid.
	for i := 0; i < 50; i++ {
		if id := s.Install(Entry{Ref: Ref{Ctrl: 1, Obj: ObjectID(100 + i)}}); id == stale {
			t.Fatalf("purged cid %d recycled onto a new capability", stale)
		}
	}
	if _, ok := s.Lookup(stale); ok {
		t.Fatal("purged cid resolves")
	}
	// Explicit Drop still recycles.
	d := s.Install(Entry{Ref: Ref{Ctrl: 2, Obj: 7}})
	s.Drop(d)
	if id := s.Install(Entry{Ref: Ref{Ctrl: 2, Obj: 8}}); id != d {
		t.Fatalf("dropped cid %d not recycled (got %d)", d, id)
	}
}

func TestSpacePurgeRefs(t *testing.T) {
	s := NewSpace()
	var ids []CapID
	for i := 0; i < 10; i++ {
		ids = append(ids, s.Install(Entry{Ref: Ref{Ctrl: ControllerID(i % 2), Obj: ObjectID(i)}}))
	}
	dropped := s.PurgeRefs(func(r Ref) bool { return r.Ctrl == 0 })
	if dropped != 5 || s.Len() != 5 {
		t.Fatalf("dropped %d, remaining %d", dropped, s.Len())
	}
	for i, id := range ids {
		if _, ok := s.Lookup(id); ok != (i%2 == 1) {
			t.Errorf("cid %d of controller %d resolves: %v", id, i%2, ok)
		}
	}
}

func TestTreeCreateDeriveGet(t *testing.T) {
	tr := NewTree()
	root := tr.Create("root")
	child := tr.Derive(root.ID, "child")
	if child == nil || child.Parent != root.ID {
		t.Fatalf("Derive = %+v", child)
	}
	if _, ok := tr.Get(child.ID); !ok {
		t.Fatal("Get(child) failed")
	}
	if tr.Derive(999, "x") != nil {
		t.Error("Derive from missing parent succeeded")
	}
}

func TestTreeRevokeSubtree(t *testing.T) {
	tr := NewTree()
	root := tr.Create(nil)
	a := tr.Derive(root.ID, nil)
	b := tr.Derive(root.ID, nil)
	aa := tr.Derive(a.ID, nil)
	revoked := tr.Revoke(a.ID, nil)
	if len(revoked) != 2 {
		t.Fatalf("revoked %d nodes, want 2", len(revoked))
	}
	if _, ok := tr.Get(a.ID); ok {
		t.Error("a still live")
	}
	if _, ok := tr.Get(aa.ID); ok {
		t.Error("aa still live")
	}
	if _, ok := tr.Get(b.ID); !ok {
		t.Error("sibling b was revoked")
	}
	if _, ok := tr.Get(root.ID); !ok {
		t.Error("parent root was revoked")
	}
	// Deriving from a revoked parent fails.
	if tr.Derive(a.ID, nil) != nil {
		t.Error("Derive from revoked parent succeeded")
	}
	// Double revoke is a no-op.
	if tr.Revoke(a.ID, nil) != nil {
		t.Error("double revoke returned nodes")
	}
}

func TestTreeRemoveAfterRevoke(t *testing.T) {
	tr := NewTree()
	root := tr.Create(nil)
	a := tr.Derive(root.ID, nil)
	revoked := tr.Revoke(a.ID, nil)
	for i := len(revoked) - 1; i >= 0; i-- {
		tr.Remove(revoked[i].ID)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1 (root only)", tr.Len())
	}
	if root.HasChildren() {
		t.Error("root still has children after removal")
	}
	// Removing a live node must be refused.
	tr.Remove(root.ID)
	if _, ok := tr.Get(root.ID); !ok {
		t.Error("Remove erased a live node")
	}
}

func TestTreeAncestor(t *testing.T) {
	tr := NewTree()
	root := tr.Create(nil)
	a := tr.Derive(root.ID, nil)
	aa := tr.Derive(a.ID, nil)
	b := tr.Derive(root.ID, nil)
	if !tr.Ancestor(root.ID, aa.ID) || !tr.Ancestor(a.ID, aa.ID) || !tr.Ancestor(aa.ID, aa.ID) {
		t.Error("ancestor chain broken")
	}
	if tr.Ancestor(b.ID, aa.ID) {
		t.Error("b is not an ancestor of aa")
	}
}

// Property: revoking a random node in a random tree invalidates
// exactly the subtree rooted at it — every revoked node has the target
// as an ancestor, and every surviving node does not.
func TestTreeRevokeExactSubtreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTree()
		ids := []ObjectID{tr.Create(nil).ID}
		for i := 0; i < 40; i++ {
			parent := ids[rng.Intn(len(ids))]
			if n := tr.Derive(parent, nil); n != nil {
				ids = append(ids, n.ID)
			}
		}
		target := ids[rng.Intn(len(ids))]
		tr.Revoke(target, nil)
		for _, id := range ids {
			_, live := tr.Get(id)
			inSubtree := tr.Ancestor(target, id)
			if live == inSubtree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLiveLen(t *testing.T) {
	tr := NewTree()
	root := tr.Create(nil)
	tr.Derive(root.ID, nil)
	c := tr.Derive(root.ID, nil)
	tr.Revoke(c.ID, nil)
	if tr.LiveLen() != 2 {
		t.Errorf("LiveLen = %d, want 2", tr.LiveLen())
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
}

func TestGetAnyReturnsRevoked(t *testing.T) {
	tr := NewTree()
	n := tr.Create(nil)
	tr.Revoke(n.ID, nil)
	if _, ok := tr.Get(n.ID); ok {
		t.Error("Get returned revoked node")
	}
	if _, ok := tr.GetAny(n.ID); !ok {
		t.Error("GetAny missed revoked node")
	}
}
