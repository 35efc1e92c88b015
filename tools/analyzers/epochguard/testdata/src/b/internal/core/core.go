// Package core is a miniature replica of fractos/internal/core used
// to exercise the epochguard analyzer.
package core

type Status uint8

const (
	StatusOK    Status = 0
	StatusStale Status = 1
)

type Epoch uint32

type Ref struct {
	Ctrl  uint32
	Obj   uint64
	Epoch Epoch
}

type Node struct{ ID uint64 }

type tree struct{}

func (t *tree) Get(obj uint64) (*Node, bool) { return &Node{ID: obj}, true }
func (t *tree) Revoke(obj uint64) []*Node    { return nil }

type msg struct {
	Token uint64
	From  Ref
}

// Controller mirrors the real Controller's peer-handler conventions.
type Controller struct {
	id    uint32
	epoch Epoch
	tree  *tree
	peers map[uint32]*peerState
}

// peerState mirrors the real per-peer record.
type peerState struct{ epoch Epoch }

func (c *Controller) send(m *msg) {}

// resolveOwned performs the canonical epoch check before touching the
// tree, exactly like the real one.
func (c *Controller) resolveOwned(ref Ref) (*Node, Status) {
	if ref.Epoch != c.epoch {
		return nil, StatusStale
	}
	n, _ := c.tree.Get(ref.Obj)
	return n, StatusOK
}

// peerGuarded delegates to resolveOwned: the epoch check is reached
// transitively, so this is clean.
func (c *Controller) peerGuarded(m *msg) {
	n, st := c.resolveOwned(m.From)
	_, _ = n, st
	c.send(m)
}

// peerDirect consults the peer's epoch itself before touching the tree:
// clean.
func (c *Controller) peerDirect(m *msg) {
	if p, ok := c.peers[m.From.Ctrl]; ok && m.From.Epoch < p.epoch {
		return
	}
	c.tree.Revoke(m.From.Obj)
}

// peerUnguarded reaches the tree with no epoch consultation anywhere
// in its call graph: a stale peer could revive revoked state.
func (c *Controller) peerUnguarded(m *msg) { // want `peer handler peerUnguarded reaches the object tree without consulting its own or the peer's epoch`
	c.tree.Revoke(m.From.Obj)
	c.send(m)
}

// peerIndirectUnguarded reaches the tree through a helper that never
// checks epochs: still a bug.
func (c *Controller) peerIndirectUnguarded(m *msg) { // want `peer handler peerIndirectUnguarded reaches the object tree without consulting its own or the peer's epoch`
	c.rawRevoke(m.From)
}

func (c *Controller) rawRevoke(ref Ref) {
	c.tree.Revoke(ref.Obj)
}

// ownGuarded is an owner-side step a peer's request runs: held to the
// same rule, and clean through resolveOwned.
func (c *Controller) ownGuarded(ref Ref) Status {
	_, st := c.resolveOwned(ref)
	return st
}

// ownUnguarded is an owner-side step that skips the epoch check.
func (c *Controller) ownUnguarded(ref Ref) { // want `peer handler ownUnguarded reaches the object tree without consulting its own or the peer's epoch`
	c.rawRevoke(ref)
}

// peerNoTree never touches the tree, so it needs no epoch check.
func (c *Controller) peerNoTree(m *msg) {
	c.send(m)
}

// peerSuppressed documents an intentional exception.
//
//fractos:epochguard-ok refs carry exact epochs; purge-by-value is epoch-safe
func (c *Controller) peerSuppressed(m *msg) {
	c.tree.Revoke(m.From.Obj)
}
