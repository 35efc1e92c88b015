package wire

import "errors"

// Status is the result code of a FractOS operation.
//
//fractos:mustuse statuses carry revocation, staleness and permission failures
type Status uint8

// Operation result codes. StatusOK is zero so zero-valued completions
// read as success.
const (
	StatusOK Status = iota
	// StatusRevoked: the referenced object was revoked at its owner.
	StatusRevoked
	// StatusStale: the capability's epoch predates the owning
	// Controller's current epoch (the Controller rebooted), so the
	// capability is implicitly revoked (§3.6).
	StatusStale
	// StatusNoCap: the cid does not name a live capability-space entry.
	StatusNoCap
	// StatusPerm: the capability lacks a required right.
	StatusPerm
	// StatusImmutable: a Request refinement tried to overwrite an
	// argument that was already set (§3.4's security property).
	StatusImmutable
	// StatusBounds: a memory offset/length is out of range.
	StatusBounds
	// StatusUnknownObj: the owner has no such object.
	StatusUnknownObj
	// StatusBadArg: malformed operation arguments.
	StatusBadArg
	// StatusNoProc: the target Process is not connected (failed).
	StatusNoProc
	// StatusKind: the capability has the wrong kind for the operation.
	StatusKind
	// StatusBackpressure: the provider's congestion window is full and
	// the invocation was refused rather than queued.
	StatusBackpressure
	// StatusAborted: the operation was cut short by a failure event.
	StatusAborted
	// StatusQuota: the Process's capability-space quota is exhausted
	// (§4: the capability space is "set at Process creation time (can
	// be capped via quotas)").
	StatusQuota
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusRevoked:
		return "revoked"
	case StatusStale:
		return "stale-epoch"
	case StatusNoCap:
		return "no-capability"
	case StatusPerm:
		return "permission-denied"
	case StatusImmutable:
		return "argument-immutable"
	case StatusBounds:
		return "out-of-bounds"
	case StatusUnknownObj:
		return "unknown-object"
	case StatusBadArg:
		return "bad-argument"
	case StatusNoProc:
		return "no-process"
	case StatusKind:
		return "wrong-kind"
	case StatusBackpressure:
		return "backpressure"
	case StatusAborted:
		return "aborted"
	case StatusQuota:
		return "capability-quota-exhausted"
	default:
		return "status(?)"
	}
}

// Err converts a non-OK status into an error (nil for StatusOK).
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	return &StatusError{s}
}

// StatusError wraps a non-OK Status as an error.
type StatusError struct{ Status Status }

func (e *StatusError) Error() string { return "fractos: " + e.Status.String() }

// IsStatus reports whether err is (or wraps) a StatusError with the
// given code.
func IsStatus(err error, s Status) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Status == s
}
