//go:build !race

package core

// recycleCopyOps is the race build's knob (poison_race.go).
const recycleCopyOps = true
