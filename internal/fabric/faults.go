// Fault injection: a deterministic chaos layer under the message
// fabric.
//
// The FractOS correctness story (§3.6, failure as revocation) is only
// as strong as the conditions it has been exercised under. The rest of
// the repo injects *binary* failures — severed endpoints, crashed
// Controllers — over an otherwise perfect network. Real RoCE fabrics
// lose, delay, and occasionally duplicate frames, and switches
// partition. Faults models exactly that, below Send, so every layer
// above (controller RPC, deliveries, heartbeats) sees the same
// degraded network a production deployment would.
//
// Determinism contract: every fault decision is drawn from a private
// rand.Rand seeded from Faults.Seed — never from the kernel's RNG —
// so (a) two runs with the same Spec produce byte-identical fault
// schedules and fabric traces, and (b) a zero-value Faults consumes
// no randomness and leaves the fabric's behavior bit-for-bit
// identical to a fabric without the layer. Link cuts and partitions
// are imperative (SetLink, PartitionNodes, HealPartitions); a workload
// that schedules them does so with kernel timers (sim.Kernel.After).
//
// Scope: faults apply only to cross-node message frames (traffic that
// traverses the switch). Same-node loopback models shared-memory
// queues and stays reliable. RDMA transfers model a reliable
// transport (hardware retransmission) and are not subject to
// probabilistic loss, but a cut path (link down or partition) fails
// them with an error, which the copy engine surfaces as
// StatusAborted.
package fabric

import (
	"math/rand"

	"fractos/internal/assert"
	"fractos/internal/sim"
)

// Faults configures the chaos layer. A zero Faults in a deployment's
// configuration installs nothing; passed to InstallFaults it gives a
// lossless layer that only topology changes can cut.
type Faults struct {
	// Drop is the per-frame probability that a cross-node message is
	// lost in transit. The sender still pays for the wire time; Send
	// still returns true — loss is not locally observable, exactly the
	// property that forces retransmission protocols above.
	Drop float64
	// Dup is the per-frame probability that a cross-node message is
	// delivered twice (lower-layer retransmit after a lost ack). The
	// duplicate is independently decoded and pays for the wire again.
	Dup float64
	// Jitter adds a uniform [0, Jitter) extra delivery delay to every
	// cross-node frame (switch queueing), reordering traffic between
	// distinct node pairs.
	Jitter sim.Time
	// Seed seeds the private fault RNG. Runs with equal Seed (and
	// equal workload) make identical fault decisions.
	Seed int64
	// Nth, when positive, loses the Nth cross-node frame, counted from 1
	// in send order — or, with NthDup, delivers it twice — drawing no
	// randomness: one fault, placed exactly.
	Nth    int
	NthDup bool
}

// Enabled reports whether the configuration injects any faults.
func (f Faults) Enabled() bool {
	return f.Drop > 0 || f.Dup > 0 || f.Jitter > 0 || f.Nth > 0
}

// FaultStats counts injected faults, for experiments and tests.
type FaultStats struct {
	Dropped    int64 // frames lost to probabilistic drop or to Faults.Nth
	Duplicated int64 // frames delivered twice
	Cut        int64 // frames lost to a down link or partition
	Delayed    int64 // frames that drew nonzero jitter
}

// faultState is the live chaos state hanging off a Net.
type faultState struct {
	rng    *rand.Rand
	cfg    Faults
	frames int // cross-node frames sent (Faults.Nth)

	linkDown []bool // by node: switch port administratively dead
	group    []int  // by node: partition group id (0 = main)
	nextGrp  int    // next partition id to hand out

	stats FaultStats
}

// InstallFaults installs the chaos layer on the fabric. Call it once, before the fabric carries its
// first frame or RDMA op: from then on Lossy holds for the fabric's
// whole life, so no call sent while it was reliable can lose its
// answer. Any Faults installs the layer — a zero one gives a lossless
// fabric that only SetLink and PartitionNodes can cut.
func (n *Net) InstallFaults(f Faults) {
	assert.True(n.stats == Stats{}, "fabric: InstallFaults after the fabric carried traffic")
	n.faults = &faultState{
		rng: rand.New(rand.NewSource(f.Seed + 1)), // +1: seed 0 is a valid, distinct stream
		cfg: f,
	}
}

// FaultStats returns the cumulative injected-fault counters (zero if
// the chaos layer is not installed).
func (n *Net) FaultStats() FaultStats {
	if n.faults == nil {
		return FaultStats{}
	}
	return n.faults.stats
}

// topology returns the fault state a topology change edits. Only a Net
// built with faults can be cut: on any other, a call sent without a
// retransmission timer could wait forever for an answer a cut lost.
func (n *Net) topology() *faultState {
	assert.True(n.faults != nil, "fabric: topology change on a Net built without faults")
	return n.faults
}

// SetLink administratively raises (up=true) or severs a node's switch
// port. While down, all cross-node frames to or from the node are
// silently lost and cross-node RDMA fails.
func (n *Net) SetLink(node int, up bool) {
	fs := n.topology()
	for len(fs.linkDown) <= node {
		fs.linkDown = append(fs.linkDown, false)
	}
	fs.linkDown[node] = !up
}

// PartitionNodes cuts the given nodes off from the rest of the
// cluster (they keep connectivity among themselves). Successive calls
// create independent partitions.
func (n *Net) PartitionNodes(group []int) {
	fs := n.topology()
	fs.nextGrp++
	id := fs.nextGrp
	for _, node := range group {
		for len(fs.group) <= node {
			fs.group = append(fs.group, 0)
		}
		fs.group[node] = id
	}
}

// HealPartitions restores full connectivity between partition groups
// (administratively downed links stay down).
func (n *Net) HealPartitions() {
	fs := n.topology()
	for i := range fs.group {
		fs.group[i] = 0
	}
}

// cut2 is cut for possibly-equal nodes: a node always reaches itself.
func (fs *faultState) cut2(a, b int) bool {
	return a != b && fs.cut(a, b)
}

// cut reports whether the switch path between two distinct nodes is
// severed right now.
func (fs *faultState) cut(a, b int) bool {
	if fs.down(a) || fs.down(b) {
		return true
	}
	return fs.grp(a) != fs.grp(b)
}

func (fs *faultState) down(node int) bool {
	return node < len(fs.linkDown) && fs.linkDown[node]
}

func (fs *faultState) grp(node int) int {
	if node < len(fs.group) {
		return fs.group[node]
	}
	return 0
}
