//go:build race

package proc

// recycleCallOps is off under the race detector: a finished callOp stays
// cleared instead of going back to the free list, so a reply, completion
// or deadline that outlives its call trips the assert its step starts
// with instead of stepping whichever Call reused the record (core's
// poison_race.go does the same for copy records).
const recycleCallOps = false

// putDelivery is the race build's: a descriptor libfractos takes back —
// Serve's when its handler has returned, a Handle handler's at Finish, a
// Call's reply when the next Call on the Process starts — is poisoned and stays out of the pool. Its
// immediates read 0xDB, and it has no capabilities and no Process, so
// whoever kept it past its end reads garbage instead of the next
// delivery's arguments (TestKeptDeliveryReadsPoison).
func (p *Process) putDelivery(dv *Delivery) {
	for i := range dv.Imms {
		dv.Imms[i] = 0xDB
	}
	dv.p, dv.Caps = nil, nil
}
