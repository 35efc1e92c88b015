//go:build !race

package fabric

// poisonFrame is the race build's retention poisoning (poison_race.go).
func poisonFrame([]byte) {}
