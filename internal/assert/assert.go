// Package assert is the single place in the repository allowed to
// panic (enforced by the panicfree analyzer in cmd/fractos-vet).
//
// FractOS distinguishes two failure classes. Protocol-level failures —
// revoked capabilities, stale epochs, permission denials, dead peers —
// are part of the design (§3.6 failure handling) and travel as
// wire.Status values so the distributed protocol can unwind them.
// Programmer-invariant violations — a corrupted capability tree, an
// impossible scheduler state, a harness misconfiguration — have no
// meaningful recovery: continuing would silently corrupt simulation
// results. Those call the helpers here, which terminate with a
// diagnosable message.
//
// Keeping the terminators in one package makes the policy mechanical:
// `panic` anywhere else fails `make lint`, so every abort is either an
// invariant documented at an assert call site or an explicitly waived
// `fractos:panic-ok` line.
package assert

import "fmt"

// That aborts with a formatted message unless cond holds. Use it for
// invariants whose violation indicates a bug, never for conditions an
// adversarial or failed remote node could trigger.
func That(cond bool, format string, args ...interface{}) {
	if !cond {
		//fractos:panic-ok assert is the designated invariant terminator
		panic(fmt.Sprintf("invariant violated: "+format, args...))
	}
}

// True aborts with msg unless cond holds. It is the allocation-free
// variant of That for hot paths: the message is a pre-built string, so
// the call site pays no variadic ...interface{} boxing.
func True(cond bool, msg string) {
	if !cond {
		//fractos:panic-ok assert is the designated invariant terminator
		panic("invariant violated: " + msg)
	}
}

// NoErr aborts when err is non-nil. It is for impossible errors —
// experiment harness setup, encoding of values we just built — not for
// I/O that can legitimately fail.
func NoErr(err error, context string) {
	if err != nil {
		//fractos:panic-ok assert is the designated invariant terminator
		panic(fmt.Sprintf("%s: %v", context, err))
	}
}

// Failf aborts unconditionally; it marks unreachable code.
func Failf(format string, args ...interface{}) {
	//fractos:panic-ok assert is the designated invariant terminator
	panic(fmt.Sprintf(format, args...))
}
