//go:build !race

package proc

// recycleCallOps is the race build's knob (poison_race.go).
const recycleCallOps = true
