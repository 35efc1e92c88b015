// Package wire mirrors the repo's status vocabulary for the mustuse
// testdata.
package wire

// Status is the syscall/peer outcome code.
//
//fractos:mustuse statuses carry revocation and permission failures
type Status uint8

// Status values.
const (
	StatusOK Status = iota
	StatusPerm
)
