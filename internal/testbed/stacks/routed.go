package stacks

import (
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/proc"
	"fractos/internal/route"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// Routed deploys a replicated synthetic service behind the registry
// and a routing balancer: a registry and the client on node 0,
// Replicas instances of a sleep-for-the-requested-duration worker
// spread over Nodes, and a client-side Balancer with the named Policy.
// With Repair set an Autoscaler keeps Replicas instances, repairing
// the set when the deployment's NodeWatch (Spec.Heartbeat) fences a
// node.
//
// The work request is the route package's layout: imm[0:8) request id,
// imm[8:16) service duration in virtual ns.
type Routed struct {
	// Replicas is the initial (and minimum) instance count; 0 means 4.
	Replicas int
	// Policy is "rr" or "least"; "" means "rr".
	Policy string
	// Nodes place the replicas, round-robin (default: every node but
	// the client's).
	Nodes []int
	// Repair enables the autoscaler's fence-driven repair.
	Repair bool
	// AttemptTimeout bounds each routed attempt (see
	// route.Balancer.AttemptTimeout); 0 keeps the route default.
	AttemptTimeout sim.Time

	// Filled at deploy.
	Reg     *services.Registry
	ClientP *proc.Process
	Client  *services.Client
	B       *route.Balancer
	Scaler  *route.Autoscaler
	// Instances are the initial replicas (the autoscaler's view
	// supersedes this when scaling is on).
	Instances []*route.Instance
	// AllInstances is every instance ever spawned, including fenced
	// ones — the soak tests' double-delivery oracle (each request id
	// must appear in at most one instance's Served log).
	AllInstances []*route.Instance
}

// routedName is the registry name a Routed service registers under.
const routedName = "svc.work"

// Deploy implements testbed.Service.
func (s *Routed) Deploy(tk *sim.Task, d *testbed.Deployment) {
	if s.Replicas <= 0 {
		s.Replicas = 4
	}
	if len(s.Nodes) == 0 {
		for n := 1; n < d.Cl.Nodes(); n++ {
			s.Nodes = append(s.Nodes, n)
		}
	}

	s.Reg = services.NewRegistry(d.Cl, 0)
	assert.NoErr(s.Reg.Start(tk), "stacks/routed: registry")
	if d.Watch != nil {
		s.Reg.BindWatch(d.Watch)
	}

	spawn := func(t *sim.Task, node, seq int) (*route.Instance, error) {
		p := d.Attach(node, fmt.Sprintf("%s-r%d", routedName, seq), 0)
		rep := &route.Replica{P: p, Service: workTime}
		if err := rep.Start(t); err != nil {
			return nil, err
		}
		rc, err := s.Reg.Connect(p)
		if err != nil {
			return nil, err
		}
		id, err := rc.Register(t, routedName, rep.Root, node)
		if err != nil {
			return nil, err
		}
		in := &route.Instance{Node: node, Seq: seq, MemberID: id, R: rep}
		s.AllInstances = append(s.AllInstances, in)
		return in, nil
	}

	cp := d.Attach(0, routedName+"-client", 0)
	s.ClientP = cp
	cl, err := s.Reg.Connect(cp)
	assert.NoErr(err, "stacks/routed: client connect")
	s.Client = cl
	s.B = &route.Balancer{
		Client:         cl,
		Name:           routedName,
		Policy:         route.ParsePolicy(s.Policy),
		Retry:          proc.Retry{Max: 6, Seed: 17},
		AttemptTimeout: s.AttemptTimeout,
	}

	if s.Repair {
		s.Scaler = &route.Autoscaler{
			Min: s.Replicas, Nodes: s.Nodes, Spawn: spawn, Balancer: s.B,
		}
		if d.Watch != nil {
			s.Scaler.BindWatch(d.Watch, d.K())
		}
		assert.NoErr(s.Scaler.Start(tk), "stacks/routed: autoscaler")
		s.Instances = s.Scaler.Instances()
		return
	}
	for i := 0; i < s.Replicas; i++ {
		in, err := spawn(tk, s.Nodes[i%len(s.Nodes)], i+1)
		assert.NoErr(err, "stacks/routed: spawn")
		s.Instances = append(s.Instances, in)
	}
}

// workTime is the synthetic routed service: it models a request whose
// service time rides in imm[8:16).
func workTime(d *proc.Delivery) sim.Time { return sim.Time(d.U64(8)) }

// Do routes one request with the given id and service duration through
// the balancer.
func (s *Routed) Do(t *sim.Task, id uint64, service sim.Time) error {
	_, err := s.B.Call(t, []wire.ImmArg{
		proc.U64Arg(0, id),
		proc.U64Arg(8, uint64(service)),
	}, nil)
	return err
}

var _ testbed.Service = (*Routed)(nil)
