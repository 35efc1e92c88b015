//go:build !race

package proc

// recycleCallOps is the race build's knob (poison_race.go).
const recycleCallOps = true

// putDelivery takes back a descriptor whose end libfractos knows: Serve's
// when its handler has returned, a Handle handler's at Finish, a Call's
// reply when the next Call on the Process starts. It is cleared but for the argument storage it grew to,
// and recycled; the race build poisons it instead (poison_race.go).
func (p *Process) putDelivery(dv *Delivery) {
	*dv = Delivery{Imms: dv.Imms[:0], Caps: dv.Caps[:0]}
	p.deliveries.Put(dv)
}
