//go:build race

package proc

// recycleCallOps is off under the race detector: a finished callOp stays
// cleared instead of going back to the free list, so a reply, completion
// or deadline that outlives its call trips the assert its step starts
// with instead of stepping whichever Call reused the record (core's
// poison_race.go does the same for copy records).
const recycleCallOps = false
