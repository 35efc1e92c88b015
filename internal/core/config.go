// Package core implements the FractOS Controller: the trusted,
// isolated OS layer of §3. Controllers own Memory and Request objects,
// maintain per-Process capability spaces, route and validate every
// operation, orchestrate third-party memory copies, and translate
// failures into capability revocations.
//
// Controllers run as message handlers on their fabric endpoints and can
// be deployed on a node's host CPU or its SmartNIC (§6 evaluates both);
// the deployment only changes where the Controller's endpoint attaches
// and which column of the operation-cost table applies. Nothing in a
// Controller is a task: an operation that outlives its handler is a
// pooled record stepped in kernel context by the events it waits for —
// a pendingCall by its answer or its retransmission timer (call.go), a
// memory copy by its validations, its admission to a bounce pair, its
// per-chunk cost and its RDMA completions (copyOp, copy.go).
//
// A Controller receives encoded frames and decodes each when it gets to
// it, through its own wire.Decoder: a handler's message is borrowed
// until the next decode, its byte payloads until the frame is released
// after the handler returns. Handlers therefore answer with messages
// built in place, and the few records that outlive a handler — a
// pending inter-Controller call, a delivery queued for a window credit,
// a reply in the at-most-once cache, the locations a memory copy was
// told — hold copies in storage of their own.
package core

import (
	"time"

	"fractos/internal/fabric"
	"fractos/internal/sim"
)

// OpCost is the Controller processing time of one operation class for
// the two deployment targets. The SmartNIC column is slower: the
// BlueField's 800 MHz ARM cores pay heavily for the atomic-rich
// capability and object lookups (§6.1).
type OpCost struct {
	CPU  sim.Time
	SNIC sim.Time
}

// On selects the cost for a deployment domain.
func (c OpCost) On(d fabric.Domain) sim.Time {
	if d == fabric.SNIC {
		return c.SNIC
	}
	return c.CPU
}

const usec = sim.Time(time.Microsecond)

// Perf is the Controller's operation-cost model, calibrated against
// the paper's micro-benchmarks (§6.1; see DESIGN.md §7).
type Perf struct {
	// Null: base syscall handling (Table 3: 3.00-2.42=0.58 µs CPU,
	// 4.50-3.68=0.82 µs sNIC).
	Null OpCost
	// ReqHandle: request invocation handling per Controller pass
	// (Figure 6: 1.41 µs CPU / 5.11 µs sNIC both ways).
	ReqHandle OpCost
	// CtrlSerial: additional (de)serialization when an invocation
	// crosses Controllers (Figure 6: +4.41 µs CPU / +12.21 µs sNIC
	// both ways, minus the extra network hops).
	CtrlSerial OpCost
	// PerCap: per-capability delegation cost per side (Figure 7:
	// ~2.4 µs CPU / 3.8 µs sNIC per capability round trip).
	PerCap OpCost
	// MemOp: memory-operation orchestration (validate + bounce setup).
	MemOp OpCost
	// PerChunk: per-bounce-chunk handling during memory_copy.
	PerChunk OpCost
	// CapOp: revocation/revtree/diminish handling.
	CapOp OpCost
}

// DefaultPerf returns the calibrated cost model, the one every
// Controller runs.
func DefaultPerf() Perf {
	return Perf{
		Null:       OpCost{CPU: 580, SNIC: 820},
		ReqHandle:  OpCost{CPU: 700, SNIC: 2550},
		CtrlSerial: OpCost{CPU: 1000, SNIC: 3900},
		PerCap:     OpCost{CPU: 1200, SNIC: 1900},
		MemOp:      OpCost{CPU: 900, SNIC: 2800},
		PerChunk:   OpCost{CPU: 350, SNIC: 1200},
		CapOp:      OpCost{CPU: 600, SNIC: 1900},
	}
}

// Config parameterizes one Controller instance.
type Config struct {
	// Loc places the Controller (host CPU or SmartNIC of a node).
	Loc fabric.Location
	// Window bounds outstanding (unacknowledged) deliveries per
	// managed Process — the congestion-control back-pressure of §4.
	// 0 means DefaultWindow.
	Window int
	// HWCopies switches memory_copy from bounce buffers to third-party
	// RDMA (the "HW copies" model of Figure 5).
	HWCopies bool
	// SingleBuffer disables double buffering in memory_copy (the
	// ablation of DESIGN.md §6): each chunk's write-out completes
	// before the next chunk's read begins.
	SingleBuffer bool
	// CapQuota caps the number of live capability-space entries per
	// managed Process (§4's quota on capability-space memory).
	// 0 means unlimited.
	CapQuota int
}

// Defaults for Config's zero fields, and the constants of the bounce
// pool and the call deadline.
const (
	DefaultWindow = 32
	// DefaultBounceChunk is the bounce-buffer chunk size; copies larger
	// than this use double buffering (§6.1: 16 KiB).
	DefaultBounceChunk = 16 << 10
	// DefaultBouncePairs is how many concurrent copies the bounce pool
	// admits (each needs two chunks).
	DefaultBouncePairs = 8
	// RPCBudget is each inter-Controller call's virtual deadline on a
	// fabric that can lose a frame (fabric.Net.Lossy): an unanswered
	// call is resent on the peer's RTT-driven timer (rtt.go) until this
	// much time has passed since its first send, then resolves with
	// StatusAborted. An outage shorter than this is masked, a longer
	// one surfaces — comfortably past the partition windows the chaos
	// suite injects. A reliable fabric arms no timer at all.
	RPCBudget = 315 * sim.Time(time.Millisecond)
)

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	return c
}
