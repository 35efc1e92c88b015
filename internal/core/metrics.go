package core

import "fmt"

// Metrics are a Controller's cumulative operation counters, for
// observability and resource accounting (the paper quotes per-object
// and per-connection memory budgets in §4; these counters are how an
// operator would watch them).
type Metrics struct {
	// Syscalls served, by group.
	NullOps    int64
	MemOps     int64 // memory_create/diminish
	Copies     int64 // memory_copy orchestrations
	CopyBytes  int64
	ReqCreates int64
	Invokes    int64 // request_invoke handled (local + forwarded)
	// InvokesRefused counts the invocations refused here: at the
	// invoker's Controller (a missing or stale entry, an argument it may
	// not grant) or at the Request's owner (revoked, spent, provider gone).
	InvokesRefused int64
	CapOps         int64 // revtree/revoke/drop/monitor

	// Revocation machinery.
	Revocations    int64 // objects invalidated here
	CleanupsSent   int64 // cleanup broadcasts issued
	EntriesPurged  int64 // capability-space entries purged by cleanup
	MonitorsFired  int64 // monitor callbacks delivered
	StaleRejected  int64 // uses rejected by the epoch check
	QuotaRejected  int64 // installs refused by the quota
	DeliveriesSent int64 // request_receive descriptors delivered
	Backpressured  int64 // deliveries queued on a full window

	// Lossy-fabric resilience (docs/FAULTS.md).
	Retransmits int64 // inter-Controller requests resent on timeout
	RPCAborted  int64 // calls resolved StatusAborted (retries exhausted, peer epoch bump, own crash)
	DedupHits   int64 // retransmitted requests answered from the at-most-once cache
	SendFailed  int64 // sends to torn-down endpoints (observed, not silent)
}

// Metrics returns a snapshot of the Controller's counters.
func (c *Controller) Metrics() Metrics { return c.metrics }

// Footprint is the Controller's modeled memory budget, using the
// figures §4 quotes for the prototype: 64 MB of RoCE buffers per
// managed Process, 64 MB per peer Controller connection, the
// capability-space entries, the Controller's own bounce buffers, and
// 24 B per revocation-tree object. The paper sets these against the
// BlueField's 16 GB to argue SmartNIC deployment is viable.
type Footprint struct {
	ProcQueueBytes int64 // 64 MB × managed Processes
	PeerQueueBytes int64 // 64 MB × peer Controllers
	CapSpaceBytes  int64 // entries × sizeof(entry)
	BounceBytes    int64 // bounce-buffer pool
	ObjectBytes    int64 // 24 B × registered objects
}

// Total sums the footprint.
func (f Footprint) Total() int64 {
	return f.ProcQueueBytes + f.PeerQueueBytes + f.CapSpaceBytes + f.BounceBytes + f.ObjectBytes
}

// Per-item budgets from §4.
const (
	procQueueBudget = 64 << 20 // RoCE buffers per managed Process
	peerQueueBudget = 64 << 20 // per peer Controller connection
	capEntryBytes   = 40       // one capability-space entry
	revObjectBytes  = 24       // one revocation-tree object
)

// Footprint reports the Controller's modeled memory use.
func (c *Controller) Footprint() Footprint {
	entries := 0
	for _, ps := range c.procs {
		entries += ps.space.Len()
	}
	return Footprint{
		ProcQueueBytes: int64(len(c.procs)) * procQueueBudget,
		PeerQueueBytes: int64(len(c.peers)) * peerQueueBudget,
		CapSpaceBytes:  int64(entries) * capEntryBytes,
		BounceBytes:    int64(c.ep.ArenaSize()),
		ObjectBytes:    int64(c.tree.Len()) * revObjectBytes,
	}
}

// String renders the counters compactly.
func (m Metrics) String() string {
	return fmt.Sprintf(
		"null=%d mem=%d copy=%d(%dB) reqcreate=%d invoke=%d refused=%d capop=%d revoked=%d cleanup=%d purged=%d monitors=%d stale=%d quota=%d deliver=%d backpressure=%d retx=%d rpcabort=%d dedup=%d sendfail=%d",
		m.NullOps, m.MemOps, m.Copies, m.CopyBytes, m.ReqCreates, m.Invokes, m.InvokesRefused, m.CapOps,
		m.Revocations, m.CleanupsSent, m.EntriesPurged, m.MonitorsFired,
		m.StaleRejected, m.QuotaRejected, m.DeliveriesSent, m.Backpressured,
		m.Retransmits, m.RPCAborted, m.DedupHits, m.SendFailed)
}
