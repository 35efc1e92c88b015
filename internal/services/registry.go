// Package services provides the deployment-support services of §4:
// a name registry (the "key/value store to bootstrap capabilities on
// new Processes") and a node-monitoring service that translates
// Controller failures into epoch announcements (the paper delegates
// this to Zookeeper).
package services

import (
	"fmt"
	"sort"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Registry Request tags. A name binds a *set* of members (replicas of
// one service); TagLookup is the single-capability view of a set,
// TagResolveSet the full one.
const (
	// TagRegister adds a member to a name's replica set.
	// imm[0:8) = provider node + 1 (0 = unknown; v1 clients send 0),
	// [8:16) = name length, [16:..) = name; caps: SlotCap = the member
	// capability, SlotCont = reply (imm[0:8) = wire.Status, [8:16) =
	// member id, [16:24) = membership version).
	TagRegister uint64 = 0x40
	// TagLookup resolves a name to a single capability — the live
	// member with the lowest id. Client.Resolve is its sender.
	// imm[8:16) = name length, [16:..) = name; caps: SlotCont = reply
	// (imm[0:8) = wire.Status; caps SlotCap = the capability).
	TagLookup uint64 = 0x41
	// TagDeregister removes a member from a name's replica set.
	// imm[0:8) = member id, [8:16) = name length, [16:..) = name;
	// caps: SlotCont = reply (imm[0:8) = wire.Status, [8:16) =
	// membership version).
	TagDeregister uint64 = 0x42
	// TagResolveSet resolves a name to its full replica set.
	// imm[8:16) = name length, [16:..) = name; caps: SlotCont = reply
	// (imm[0:8) = wire.Status, [8:16) = membership version, [16:24) =
	// member count n, then per member i < n: imm[24+16i:32+16i) =
	// member id, imm[32+16i:40+16i) = node + 1; the member capability
	// rides in cap slot i). An unknown name is an empty set, not an
	// error — resolving before the first replica registers is a benign
	// race the caller retries through its balancer.
	TagResolveSet uint64 = 0x43
)

// Registry argument slots.
const (
	SlotCap  uint16 = 0
	SlotCont uint16 = 1
)

// MaxMembers bounds one name's replica set: the ResolveSet reply
// carries every member in one invocation (16 immediate bytes and one
// cap slot each), and the bound keeps the registry's memory O(names).
const MaxMembers = 32

// Member is one replica of a named service as seen by ResolveSet.
type Member struct {
	// ID is the registry-assigned member id, unique across the
	// registry's lifetime; Deregister takes it back.
	ID uint64
	// Node is the provider's node, -1 if the registrant didn't say.
	// Locality-aware routing keys off it.
	Node int
	// Cap is the member's root capability, installed in the resolving
	// Process's capability space.
	Cap proc.Cap
}

// Set is a name's replica set at one membership version. Version
// increases on every mutation of any name (a registry-global counter),
// so callers can cache a Set and cheaply detect staleness.
type Set struct {
	Version uint64
	Members []Member
}

// member is the registry's record of one replica.
type member struct {
	id   uint64
	node int // -1 = unknown
	cp   proc.Cap
}

// Registry is the capability name service. Services register their
// root Requests under well-known names — N replicas under one name —
// and applications resolve either one capability (Resolve) or the
// whole set (ResolveSet). Capability distribution happens through
// ordinary Request-argument delegation.
//
// Membership is pruned three ways: explicit Deregister, revocation of
// a member capability (a MonitorReceive watcher installed at register
// time — graceful retire via Bye lands here too), and node fencing
// (BindWatch subscribes to a NodeWatch and drops every member on a
// fenced Controller's node).
type Registry struct {
	P *proc.Process

	cl      *core.Cluster
	names   map[string][]*member
	version uint64
	nextID  uint64

	// Root Requests. Grant them to new Processes via Connect.
	Register   proc.Cap
	Lookup     proc.Cap
	Deregister proc.Cap
	ResolveSet proc.Cap
}

// NewRegistry attaches the registry Process on a node.
func NewRegistry(cl *core.Cluster, node int) *Registry {
	return &Registry{
		P:     proc.Attach(cl, node, "registry", 0),
		cl:    cl,
		names: make(map[string][]*member),
	}
}

// Start creates the root Requests and starts serving them.
func (r *Registry) Start(t *sim.Task) error {
	for _, root := range []struct {
		tag uint64
		dst *proc.Cap
	}{
		{TagRegister, &r.Register},
		{TagLookup, &r.Lookup},
		{TagDeregister, &r.Deregister},
		{TagResolveSet, &r.ResolveSet},
	} {
		c, err := r.P.RequestCreate(t, root.tag, nil, nil)
		if err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		*root.dst = c
	}
	r.P.Serve("registry", 1, r.answer)
	return nil
}

// BindWatch subscribes the registry to a NodeWatch so fenced nodes
// drop out of every replica set: when the detector fences a
// Controller, all members registered from its node are pruned. This is
// the path revocation monitoring cannot cover — a crashed Controller's
// revocation trees die with it, so no MonitorReceive fires.
func (r *Registry) BindWatch(w *NodeWatch) {
	w.Subscribe(func(e WatchEvent) {
		if e.Kind != WatchFenced {
			return
		}
		if node, ok := nodeOfCtrl(r.cl, e.Ctrl); ok {
			r.PruneNode(node)
		}
	})
}

// PruneNode removes every member registered from a node (fencing).
// Names are visited in sorted order so the version sequence is
// deterministic.
func (r *Registry) PruneNode(node int) {
	keys := make([]string, 0, len(r.names))
	for name := range r.names {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	for _, name := range keys {
		ms := r.names[name]
		kept := ms[:0]
		for _, m := range ms {
			if m.node != node {
				kept = append(kept, m)
			}
		}
		if len(kept) != len(ms) {
			r.names[name] = kept
			r.version++
		}
	}
}

// removeMember drops one member by id; idempotent (revocation watchers
// and explicit Deregister may race).
func (r *Registry) removeMember(name string, id uint64) bool {
	ms := r.names[name]
	for i, m := range ms {
		if m.id == id {
			r.names[name] = append(ms[:i], ms[i+1:]...)
			r.version++
			return true
		}
	}
	return false
}

// answer runs a registry operation and answers through its
// continuation: imm[0:8) = the status, then what the operation returns.
func (r *Registry) answer(t *sim.Task, d *proc.Delivery) {
	st, imms, args := r.handle(t, d)
	// An error means the resolver died between asking and answering;
	// its Controller already cleaned up the continuation.
	d.Reply(SlotCont, append([]wire.ImmArg{proc.U64Arg(0, uint64(st))}, imms...), args)
}

func (r *Registry) handle(t *sim.Task, d *proc.Delivery) (wire.Status, []wire.ImmArg, []proc.Arg) {
	name, ok := d.Name()
	if !ok {
		return wire.StatusBadArg, nil, nil
	}
	switch d.Tag {
	case TagRegister:
		c, ok := d.Cap(SlotCap)
		if !ok {
			return wire.StatusBadArg, nil, nil
		}
		ms := r.names[name]
		if len(ms) >= MaxMembers {
			return wire.StatusQuota, nil, nil
		}
		r.nextID++
		m := &member{id: r.nextID, node: int(d.U64(0)) - 1, cp: c}
		r.names[name] = append(ms, m)
		r.version++
		// Auto-prune on revocation: a replica that exits gracefully
		// (Bye) or has its root revoked disappears from the set without
		// a Deregister round-trip.
		if err := r.P.MonitorReceive(t, c, func() {
			r.removeMember(name, m.id)
		}); err != nil {
			r.removeMember(name, m.id)
			return wire.StatusAborted, nil, nil
		}
		return wire.StatusOK, []wire.ImmArg{
			proc.U64Arg(8, m.id),
			proc.U64Arg(16, r.version),
		}, nil
	case TagDeregister:
		if !r.removeMember(name, d.U64(0)) {
			return wire.StatusUnknownObj, nil, nil
		}
		return wire.StatusOK, []wire.ImmArg{proc.U64Arg(8, r.version)}, nil
	case TagLookup:
		// A member list is in id order: Register appends each member
		// with the next id, and removal keeps the order.
		ms := r.names[name]
		if len(ms) == 0 {
			return wire.StatusUnknownObj, nil, nil
		}
		return wire.StatusOK, nil, []proc.Arg{{Slot: SlotCap, Cap: ms[0].cp}}
	case TagResolveSet:
		ms := r.names[name]
		imms := []wire.ImmArg{
			proc.U64Arg(8, r.version),
			proc.U64Arg(16, uint64(len(ms))),
		}
		args := make([]proc.Arg, 0, len(ms))
		for i, m := range ms {
			imms = append(imms,
				proc.U64Arg(24+16*i, m.id),
				proc.U64Arg(32+16*i, uint64(m.node+1)))
			args = append(args, proc.Arg{Slot: uint16(i), Cap: m.cp})
		}
		return wire.StatusOK, imms, args
	}
	return wire.StatusBadArg, nil, nil
}

// nodeOfCtrl maps a ControllerID to the node it is deployed on.
func nodeOfCtrl(cl *core.Cluster, id cap.ControllerID) (int, bool) {
	for _, c := range cl.Ctrls {
		if c.ID() == id {
			return c.Loc().Node, true
		}
	}
	return 0, false
}

// nameArgs builds the immediate arguments for a name.
func nameArgs(name string) []wire.ImmArg {
	return []wire.ImmArg{
		proc.U64Arg(8, uint64(len(name))),
		proc.BytesArg(16, []byte(name)),
	}
}

// Client is a Process's handle on the registry: the four root Requests
// granted at Connect time plus the typed operations over them. It
// replaces the v1 free functions (RegisterCap/LookupCap) — one handle
// per Process, created once at bootstrap, used for every
// registration and resolution that Process performs.
type Client struct {
	// P is the Process this handle is bound to; all calls issue from
	// its capability space.
	P *proc.Process

	register   proc.Cap
	lookup     proc.Cap
	deregister proc.Cap
	resolveSet proc.Cap
}

// Connect grants a Process the registry's root Requests and returns
// its Client handle (the only GrantCap a deployment needs; everything
// else flows through the registry).
func (r *Registry) Connect(p *proc.Process) (*Client, error) {
	c := &Client{P: p}
	for _, root := range []struct {
		src proc.Cap
		dst *proc.Cap
	}{
		{r.Register, &c.register},
		{r.Lookup, &c.lookup},
		{r.Deregister, &c.deregister},
		{r.ResolveSet, &c.resolveSet},
	} {
		g, err := proc.GrantCap(r.P, root.src, p)
		if err != nil {
			return nil, fmt.Errorf("registry: connect: %w", err)
		}
		*root.dst = g
	}
	return c, nil
}

// Register adds cp as a member of name's replica set. node is the
// provider's node for locality-aware routing (pass -1 if unknown). It
// returns the registry-assigned member id, the ticket Deregister takes
// back.
//
//fractos:mustuse an unchecked Register leaves a replica serving unregistered, invisible to every balancer
func (c *Client) Register(t *sim.Task, name string, cp proc.Cap, node int) (uint64, error) {
	imms := append([]wire.ImmArg{proc.U64Arg(0, uint64(node+1))}, nameArgs(name)...)
	d, err := c.P.Call(t, c.register, imms, []proc.Arg{{Slot: SlotCap, Cap: cp}}, SlotCont)
	if err != nil {
		return 0, fmt.Errorf("registry: register %q: %w", name, err)
	}
	if err := d.Err(); err != nil {
		return 0, fmt.Errorf("registry: register %q: %w", name, err)
	}
	return d.U64(8), nil
}

// Deregister removes the member id from name's replica set.
//
//fractos:mustuse an unchecked Deregister leaks registry membership: clients keep routing to a corpse
func (c *Client) Deregister(t *sim.Task, name string, id uint64) error {
	imms := append([]wire.ImmArg{proc.U64Arg(0, id)}, nameArgs(name)...)
	d, err := c.P.Call(t, c.deregister, imms, nil, SlotCont)
	if err != nil {
		return fmt.Errorf("registry: deregister %q: %w", name, err)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("registry: deregister %q: %w", name, err)
	}
	return nil
}

// Resolve resolves a name to a single capability (the lowest-id live
// member). Unknown names are permanent failures
// (wire.StatusUnknownObj); replicated services should use ResolveSet
// and route instead.
func (c *Client) Resolve(t *sim.Task, name string) (proc.Cap, error) {
	d, err := c.P.Call(t, c.lookup, nameArgs(name), nil, SlotCont)
	if err != nil {
		return proc.Cap{}, fmt.Errorf("registry: resolve %q: %w", name, err)
	}
	if err := d.Err(); err != nil {
		return proc.Cap{}, fmt.Errorf("registry: resolve %q: %w", name, err)
	}
	cp, ok := d.Cap(SlotCap)
	if !ok {
		return proc.Cap{}, fmt.Errorf("registry: resolve %q: no capability in reply", name)
	}
	return cp, nil
}

// ResolveSet resolves a name to its full replica set plus the
// membership version. An unknown name is an empty set (the caller is
// usually racing a replica's first registration and retries).
func (c *Client) ResolveSet(t *sim.Task, name string) (Set, error) {
	d, err := c.P.Call(t, c.resolveSet, nameArgs(name), nil, SlotCont)
	if err != nil {
		return Set{}, fmt.Errorf("registry: resolve-set %q: %w", name, err)
	}
	if err := d.Err(); err != nil {
		return Set{}, fmt.Errorf("registry: resolve-set %q: %w", name, err)
	}
	s := Set{Version: d.U64(8)}
	n := int(d.U64(16))
	for i := 0; i < n; i++ {
		m := Member{ID: d.U64(24 + 16*i), Node: int(d.U64(32+16*i)) - 1}
		if cp, ok := d.Cap(uint16(i)); ok {
			m.Cap = cp
		}
		s.Members = append(s.Members, m)
	}
	return s, nil
}
