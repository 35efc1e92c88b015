// Package wire mirrors the repo's message vocabulary for the
// statuscheck testdata.
package wire

// Status is the syscall/peer outcome code.
type Status uint8

// Status values.
const (
	StatusOK Status = iota
	StatusPerm
)

// MemCreate is a syscall message carrying a completion Token: the
// handler owes the issuing process exactly one complete().
type MemCreate struct {
	Token uint64
	Bytes uint64
}

// DeliverDone is a notification message with no completion owed,
// whether or not it lists capabilities to take back.
type DeliverDone struct {
	Seq  uint64
	Drop []uint32
}

// MemCopy carries a Token like any syscall; its range fields change
// nothing about the one completion it is owed.
type MemCopy struct {
	Token          uint64
	SrcOff, DstOff uint64
	Len            uint64
}
