//go:build race

package core

// recycleCopyOps is off under the race detector: a released copyOp is
// left cleared instead of going back to the free list. A completion
// that outlives its op would, in a normal build, land on whichever copy
// reuses the record and step it silently; here it lands on a record
// nobody reuses and trips the assert however late it fires (the garbage
// collector reclaims the op once no event refers to it). Race builds
// only, so `make race` runs the whole suite against it.
const recycleCopyOps = false
