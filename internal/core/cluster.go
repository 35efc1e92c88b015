package core

import (
	"fmt"

	"fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/sim"
)

// Placement selects where Controllers run, the deployment axis §6
// evaluates.
type Placement uint8

const (
	// CtrlOnCPU: one Controller per node on the host CPU.
	CtrlOnCPU Placement = iota
	// CtrlOnSNIC: one Controller per node on the node's SmartNIC.
	CtrlOnSNIC
	// CtrlShared: a single Controller on node 0's host CPU serving
	// every Process ("Shared HAL" in Figures 12/13).
	CtrlShared
)

func (p Placement) String() string {
	switch p {
	case CtrlOnSNIC:
		return "snic"
	case CtrlShared:
		return "shared"
	default:
		return "cpu"
	}
}

// ClusterConfig parameterizes a test/benchmark deployment. The fabric
// is calibrated by fabric.DefaultProfile.
type ClusterConfig struct {
	Nodes     int
	Placement Placement
	Ctrl      Config // template; Loc is set per controller
	Seed      int64

	// Faults, when Enabled, installs the fault-injection layer on the
	// fabric (docs/FAULTS.md), and the Controllers retransmit because
	// the fabric is lossy. A zero Faults keeps the fabric and the
	// Controllers byte-identical to a fault-free deployment.
	Faults fabric.Faults
}

// Cluster is a convenience harness that assembles a kernel, a fabric,
// and a Controller deployment, mirroring the paper's 3-node testbed.
type Cluster struct {
	K     *sim.Kernel
	Net   *fabric.Net
	Ctrls []*Controller

	placement Placement
	nodes     int
	nextProc  cap.ProcID
}

// NewCluster builds and starts a deployment.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	k := sim.New(cfg.Seed)
	net := fabric.New(k, fabric.DefaultProfile())
	if cfg.Faults.Enabled() {
		net.InstallFaults(cfg.Faults)
	}
	cl := &Cluster{K: k, Net: net, placement: cfg.Placement, nodes: cfg.Nodes}

	mk := func(id cap.ControllerID, loc fabric.Location) {
		c := cfg.Ctrl
		c.Loc = loc
		cl.Ctrls = append(cl.Ctrls, New(k, net, id, c))
	}
	switch cfg.Placement {
	case CtrlShared:
		mk(1, fabric.Location{Node: 0, Domain: fabric.Host})
	case CtrlOnSNIC:
		for i := 0; i < cfg.Nodes; i++ {
			mk(cap.ControllerID(i+1), fabric.Location{Node: i, Domain: fabric.SNIC})
		}
	default:
		for i := 0; i < cfg.Nodes; i++ {
			mk(cap.ControllerID(i+1), fabric.Location{Node: i, Domain: fabric.Host})
		}
	}
	for _, a := range cl.Ctrls {
		for _, b := range cl.Ctrls {
			if a != b {
				a.AddPeer(b.ID(), b.EndpointID())
			}
		}
	}
	return cl
}

// Nodes returns the deployment's node count.
func (cl *Cluster) Nodes() int { return cl.nodes }

// CtrlFor returns the Controller managing Processes on a node.
func (cl *Cluster) CtrlFor(node int) *Controller {
	if cl.placement == CtrlShared {
		return cl.Ctrls[0]
	}
	return cl.Ctrls[node%len(cl.Ctrls)]
}

// NewProcID allocates a cluster-unique Process id.
func (cl *Cluster) NewProcID() cap.ProcID {
	cl.nextProc++
	return cl.nextProc
}

// Grant copies a capability entry from one Process to another through
// the trusted bootstrap path (the paper's key/value bootstrap
// service): fromCtrl must manage fromPid, toCtrl must manage toPid.
//
// The copy deliberately clears the Monitored and Leased flags (and the
// lease deadline that rides with Leased): they
// describe the *delegation edge* a capability travelled over
// (monitor_delegate callbacks fire when a monitored edge is revoked;
// leases die with their revtree node, §3.6), not the object itself.
// Bootstrap grants bypass the invocation path, so the copied entry
// starts a fresh, unmonitored edge — leaving the flags set would tie
// the recipient's bootstrap capability to some other client's lease
// lifetime and fire failure callbacks for edges the owner never
// registered on this recipient. The trusted path is only exercised at
// deployment time, before monitors exist, so no failure-notification
// obligations are lost. TestGrantClearsDelegationFlags pins this.
func Grant(fromCtrl *Controller, fromPid cap.ProcID, fromCid cap.CapID,
	toCtrl *Controller, toPid cap.ProcID) (cap.CapID, error) {
	e, ok := fromCtrl.EntryOf(fromPid, fromCid)
	if !ok {
		return cap.NilCap, fmt.Errorf("core: no entry %d at proc %d", fromCid, fromPid)
	}
	e.Monitored = false
	e.Leased = false
	e.Delivery = 0
	cid, ok := toCtrl.GrantEntry(toPid, e)
	if !ok {
		return cap.NilCap, fmt.Errorf("core: grant target proc %d unavailable", toPid)
	}
	return cid, nil
}
