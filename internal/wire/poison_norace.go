//go:build !race

package wire

// scribble is the race build's retention poisoning (poison_race.go).
func (d *Decoder) scribble() {}
