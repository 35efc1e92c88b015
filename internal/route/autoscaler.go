package route

import (
	"fmt"

	"fractos/internal/services"
	"fractos/internal/sim"
)

// Instance is one running replica the autoscaler manages: the replica
// itself plus its registration ticket.
type Instance struct {
	Node     int
	Seq      int
	MemberID uint64
	R        *Replica
}

// ScaleEvent is one autoscaler action, in virtual time.
type ScaleEvent struct {
	At   sim.Time
	Kind string // "up", "lost", "repair"
	Node int
	// Members is the instance count after the action.
	Members int
	// Latency is, for "repair" events, fence-to-replacement-registered
	// time: the membership MTTR.
	Latency sim.Time
}

func (e ScaleEvent) String() string {
	return fmt.Sprintf("%d %s node=%d members=%d lat=%d", e.At, e.Kind, e.Node, e.Members, e.Latency)
}

// Autoscaler starts a replicated service at Min instances and keeps it
// there across node failures: on a NodeWatch fence the node's
// instances are dropped at once and as many replacements spawn on
// healthy nodes, the membership MTTR recorded per repair. Spawn is
// supplied by the deployment layer; it runs inside a simulation task
// and may issue syscalls.
//
// Determinism: instance lists are slices in spawn order, and node
// selection is a rotation over the candidate nodes — no map iteration,
// no wall clock.
type Autoscaler struct {
	// Min is the instance count kept; 0 means 1.
	Min int
	// Nodes are the candidate placement nodes, in preference order.
	Nodes []int
	// Spawn creates, starts, and registers one replica on node.
	Spawn func(t *sim.Task, node, seq int) (*Instance, error)
	// Balancer, when non-nil, is invalidated after every membership
	// change so cached sets refresh promptly.
	Balancer *Balancer

	instances []*Instance
	seq       int
	fenced    map[int]bool
	nextNode  int
	events    []ScaleEvent
}

// Instances returns the live instances in spawn order.
func (a *Autoscaler) Instances() []*Instance { return a.instances }

// MTTR returns the worst fence-to-repair latency observed (0 if no
// repair happened).
func (a *Autoscaler) MTTR() sim.Time {
	var worst sim.Time
	for _, e := range a.events {
		if e.Kind == "repair" && e.Latency > worst {
			worst = e.Latency
		}
	}
	return worst
}

// Start brings the service to Min instances.
func (a *Autoscaler) Start(t *sim.Task) error {
	if a.Min < 1 {
		a.Min = 1
	}
	a.fenced = make(map[int]bool)
	for len(a.instances) < a.Min {
		if err := a.spawnOne(t, "up"); err != nil {
			return err
		}
	}
	return nil
}

// BindWatch subscribes the autoscaler to a NodeWatch: fencing a node
// removes its instances from the managed set at once (the registry's
// own BindWatch prunes their registrations) and schedules replacements
// on healthy nodes; recovery puts the node back in the placement
// rotation.
func (a *Autoscaler) BindWatch(w *services.NodeWatch, k *sim.Kernel) {
	w.Subscribe(func(e services.WatchEvent) {
		node, ok := w.NodeOf(e.Ctrl)
		if !ok {
			return
		}
		switch e.Kind {
		case services.WatchFenced:
			a.fenced[node] = true
			a.onNodeLost(k, node, e.At)
		case services.WatchRecovered:
			a.fenced[node] = false
		}
	})
}

// onNodeLost drops the node's instances and spawns replacements from a
// fresh task (the watch callback runs in kernel context, where a
// repair cannot block).
func (a *Autoscaler) onNodeLost(k *sim.Kernel, node int, fencedAt sim.Time) {
	lost := 0
	kept := a.instances[:0]
	for _, in := range a.instances {
		if in.Node == node {
			lost++
			continue
		}
		kept = append(kept, in)
	}
	a.instances = kept
	if lost == 0 {
		return
	}
	a.events = append(a.events, ScaleEvent{At: fencedAt, Kind: "lost", Node: node, Members: len(a.instances)})
	if a.Balancer != nil {
		a.Balancer.Invalidate()
	}
	k.Spawn("scale-repair", func(t *sim.Task) {
		for i := 0; i < lost; i++ {
			if err := a.spawnOne(t, "repair"); err != nil {
				return
			}
			a.events[len(a.events)-1].Latency = t.Now() - fencedAt
		}
	})
}

// pickNode rotates over the healthy candidate nodes.
func (a *Autoscaler) pickNode() (int, bool) {
	for i := 0; i < len(a.Nodes); i++ {
		node := a.Nodes[a.nextNode%len(a.Nodes)]
		a.nextNode++
		if !a.fenced[node] {
			return node, true
		}
	}
	return 0, false
}

func (a *Autoscaler) spawnOne(t *sim.Task, kind string) error {
	node, ok := a.pickNode()
	if !ok {
		return fmt.Errorf("route: autoscaler: no healthy node")
	}
	a.seq++
	in, err := a.Spawn(t, node, a.seq)
	if err != nil {
		return err
	}
	a.instances = append(a.instances, in)
	a.events = append(a.events, ScaleEvent{At: t.Now(), Kind: kind, Node: node, Members: len(a.instances)})
	if a.Balancer != nil {
		a.Balancer.Invalidate()
	}
	return nil
}
