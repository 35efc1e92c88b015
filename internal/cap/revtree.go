package cap

// Tree is the owner-side object registry of one Controller: every
// Memory and Request object it owns, linked into revocation trees.
//
// FractOS replaces per-delegation capability trees with a much smaller
// hierarchy of individually revocable *objects* (an adaptation of
// Redell's caretaker pattern, §3.5): derivation (memory_diminish,
// request_create-from-existing, cap_create_revtree) records the new
// object as a child of its source, and revoking any object eagerly
// invalidates its entire subtree — all locally, in the owning
// Controller, so revocation is immediate and requires exactly one
// message from the revoker.
//
// Storage: nodes live in a paged slab addressed by {index, generation}
// ObjectIDs (see the package comment). Child sets are intrusive
// first/last-child + prev/next-sibling links — no per-node []ObjectID
// slice — so Derive, Remove, and the sibling walk in Revoke are all
// allocation-free and O(1) per edge. A separate intrusive sequence
// list preserves creation order for ForEach. Node pointers returned by
// the Tree are stable across growth (pages never move) but are
// invalidated by Remove of that node.
//
// Tree is a passive data structure; the Controller serializes access.
type Tree struct {
	pages   []*treePage
	free    []uint32 // reusable slot indices, LIFO
	next    uint32   // high-water slot count
	len     int      // registered nodes (incl. revoked awaiting cleanup)
	live    int      // non-revoked nodes
	seqHead ObjectID // creation-order list
	seqTail ObjectID
}

// treePageBits sizes Tree slab pages: 256 nodes per page.
const treePageBits = 8

type treePage [1 << treePageBits]Node

// Node is one registered object. The zero-valued links use ObjectID 0
// (never a valid ID) as nil.
type Node struct {
	ID      ObjectID
	Parent  ObjectID // 0 = root
	Revoked bool

	// Payload is the Controller's object record (Memory or Request
	// metadata). The tree does not interpret it.
	Payload interface{}

	// Monitoring state (§3.6). MonitorDelegator means delegations of
	// caps to this object must create child nodes and count them;
	// the callback fires when the child count returns to zero.
	MonitorDelegator bool
	DelegateeCount   int
	DelegatorProc    ProcID
	DelegatorCB      uint64
	// MonitorDelegatee marks nodes created on behalf of a delegation
	// of a monitored parent.
	MonitorDelegatee bool

	// Watchers are monitor_receive registrations: (proc, callback)
	// pairs to notify when this object is invalidated.
	Watchers []Watcher

	// Intrusive child list (creation order) and sibling links.
	firstChild, lastChild ObjectID
	prevSib, nextSib      ObjectID
	// Intrusive creation-order sequence list (ForEach order).
	prevSeq, nextSeq ObjectID

	// Slab bookkeeping: gen persists across slot reuse; inUse marks
	// the slot allocated.
	gen   uint32
	inUse bool
}

// HasChildren reports whether any derived object still hangs off n.
func (n *Node) HasChildren() bool { return n.firstChild != 0 }

// Watcher is a monitor_receive registration. Ctrl is the Controller
// managing the watching Process, so the owner can route the callback.
type Watcher struct {
	Proc     ProcID
	Ctrl     ControllerID
	Callback uint64
}

// NewTree returns an empty object registry.
func NewTree() *Tree {
	return &Tree{}
}

// at returns the node in slot idx (0-based), which must be < t.next.
func (t *Tree) at(idx uint32) *Node {
	return &t.pages[idx>>treePageBits][idx&(1<<treePageBits-1)]
}

// probe resolves an ObjectID to its slab node, or nil if the ID is
// invalid, freed, or from a superseded generation.
func (t *Tree) probe(id ObjectID) *Node {
	u := uint32(id)
	if u == 0 || u > t.next {
		return nil
	}
	n := t.at(u - 1)
	if !n.inUse || n.gen != uint32(id>>objGenShift) {
		return nil
	}
	return n
}

// Create registers a new root object and returns its node.
func (t *Tree) Create(payload interface{}) *Node {
	return t.insert(0, payload)
}

// Derive registers a new object as a child of parent. It returns nil
// if the parent does not exist or is revoked.
func (t *Tree) Derive(parent ObjectID, payload interface{}) *Node {
	p := t.probe(parent)
	if p == nil || p.Revoked {
		return nil
	}
	n := t.insert(parent, payload)
	// Append at the tail of the child list: revocation pre-order then
	// visits children in creation order, matching the semantics the
	// old []ObjectID append produced.
	n.prevSib = p.lastChild
	if p.lastChild != 0 {
		t.probe(p.lastChild).nextSib = n.ID
	} else {
		p.firstChild = n.ID
	}
	p.lastChild = n.ID
	return n
}

func (t *Tree) insert(parent ObjectID, payload interface{}) *Node {
	var idx uint32
	if n := len(t.free); n > 0 {
		idx = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		idx = t.next
		t.next++
		if int(idx>>treePageBits) == len(t.pages) {
			t.pages = append(t.pages, new(treePage))
		}
	}
	n := t.at(idx)
	gen := n.gen
	*n = Node{
		ID:     ObjectID(gen)<<objGenShift | ObjectID(idx+1),
		Parent: parent,
		gen:    gen,
		inUse:  true,
	}
	n.Payload = payload
	// Link at the tail of the creation-order list.
	n.prevSeq = t.seqTail
	if t.seqTail != 0 {
		t.probe(t.seqTail).nextSeq = n.ID
	} else {
		t.seqHead = n.ID
	}
	t.seqTail = n.ID
	t.len++
	t.live++
	return n
}

// GetAny returns the node even if revoked (for cleanup bookkeeping).
func (t *Tree) GetAny(id ObjectID) (*Node, bool) {
	n := t.probe(id)
	return n, n != nil
}

// Probe returns the node for id — revoked or not — or nil. It is the
// allocation-free hot-path variant of Get/GetAny for validation: the
// caller folds the Revoked check into its own fence.
func (t *Tree) Probe(id ObjectID) *Node {
	return t.probe(id)
}

// Revoke invalidates the object and all its descendant objects. It
// returns the nodes invalidated by this call in deterministic
// (pre-order, creation-order) sequence, so the Controller can fire
// monitor callbacks and schedule the cleanup broadcast. Revoking an
// unknown or already revoked object returns nil.
//
// The walk is iterative — threaded through the intrusive child and
// sibling links with O(1) auxiliary space — so revoking a delegation
// chain millions of levels deep cannot grow the goroutine stack
// (the recursive walk it replaces overflowed on deep chains).
func (t *Tree) Revoke(id ObjectID) []*Node {
	root := t.probe(id)
	if root == nil || root.Revoked {
		return nil
	}
	var out []*Node
	for n := root; n != nil; {
		n.Revoked = true
		t.live--
		out = append(out, n)
		n = t.nextPreorder(n, root)
	}
	return out
}

// nextPreorder advances a revocation walk one step: descend to the
// first not-yet-revoked child, else climb toward root taking the next
// unrevoked sibling at each level. Nodes already revoked before this
// Revoke call head fully-revoked subtrees (Revoke always takes a whole
// subtree down), so skipping them skips exactly the pre-revoked
// subtrees the old recursive walk skipped; nodes revoked *during* the
// walk are behind the cursor and never revisited because the walk only
// moves to first-child and next-sibling links.
func (t *Tree) nextPreorder(n, root *Node) *Node {
	for c := n.firstChild; c != 0; {
		cn := t.probe(c)
		if !cn.Revoked {
			return cn
		}
		c = cn.nextSib
	}
	for n != root {
		for s := n.nextSib; s != 0; {
			sn := t.probe(s)
			if !sn.Revoked {
				return sn
			}
			s = sn.nextSib
		}
		n = t.probe(n.Parent)
	}
	return nil
}

// Remove erases a revoked node once the cleanup pass has confirmed no
// capabilities reference it. Only revoked leaf bookkeeping is erased;
// children are assumed removed first (Revoke returns pre-order, so
// removing in reverse order is safe). The slot recycles under a
// bumped generation, so the removed ObjectID — and any stale Ref
// embedding it — stays permanently invalid.
func (t *Tree) Remove(id ObjectID) {
	n := t.probe(id)
	if n == nil || !n.Revoked {
		return
	}
	// O(1) unlink from the parent's child list.
	if p := t.probe(n.Parent); p != nil {
		if n.prevSib != 0 {
			t.probe(n.prevSib).nextSib = n.nextSib
		} else if p.firstChild == id {
			p.firstChild = n.nextSib
		}
		if n.nextSib != 0 {
			t.probe(n.nextSib).prevSib = n.prevSib
		} else if p.lastChild == id {
			p.lastChild = n.prevSib
		}
	}
	// O(1) unlink from the creation-order list.
	if n.prevSeq != 0 {
		t.probe(n.prevSeq).nextSeq = n.nextSeq
	} else if t.seqHead == id {
		t.seqHead = n.nextSeq
	}
	if n.nextSeq != 0 {
		t.probe(n.nextSeq).prevSeq = n.prevSeq
	} else if t.seqTail == id {
		t.seqTail = n.prevSeq
	}
	idx := uint32(id) - 1
	gen := n.gen + 1
	*n = Node{gen: gen}
	t.len--
	t.free = append(t.free, idx)
}

// Rekey renames a live object in place: the node keeps its slot, its
// payload and its place in the tree and takes the slot's next
// generation, so every Ref minted under the old ObjectID names nothing
// from now on — what Remove does for a dead object, for one that lives
// on. It returns the new ID, or 0 if id is unknown or revoked. (Like
// Remove's, the generation is 32 bits and wraps.)
func (t *Tree) Rekey(id ObjectID) ObjectID {
	n := t.probe(id)
	if n == nil || n.Revoked {
		return 0
	}
	n.gen++
	nid := ObjectID(n.gen)<<objGenShift | ObjectID(uint32(id))
	n.ID = nid
	// Whoever linked to the node by its ID now links to the new one.
	if n.prevSeq != 0 {
		t.probe(n.prevSeq).nextSeq = nid
	} else {
		t.seqHead = nid
	}
	if n.nextSeq != 0 {
		t.probe(n.nextSeq).prevSeq = nid
	} else {
		t.seqTail = nid
	}
	if p := t.probe(n.Parent); p != nil {
		if n.prevSib != 0 {
			t.probe(n.prevSib).nextSib = nid
		} else {
			p.firstChild = nid
		}
		if n.nextSib != 0 {
			t.probe(n.nextSib).prevSib = nid
		} else {
			p.lastChild = nid
		}
	}
	for c := n.firstChild; c != 0; {
		cn := t.probe(c)
		cn.Parent, c = nid, cn.nextSib
	}
	return nid
}

// Len reports the number of registered objects (including revoked ones
// awaiting cleanup). Maintained incrementally; O(1).
func (t *Tree) Len() int { return t.len }

// LiveLen reports the number of non-revoked objects. Maintained
// incrementally; O(1).
func (t *Tree) LiveLen() int { return t.live }

// ForEach visits every node (live and revoked) in creation order. fn
// may remove the node it is handed, but must not remove other nodes.
func (t *Tree) ForEach(fn func(*Node)) {
	for id := t.seqHead; id != 0; {
		n := t.probe(id)
		id = n.nextSeq
		fn(n)
	}
}
