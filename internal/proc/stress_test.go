package proc_test

// Randomized shadow-model stress test: a random interleaving of
// capability operations across three Processes on three nodes is
// checked against an in-memory model of what FractOS must guarantee:
//
//	I1  a copy succeeds iff the model says both capabilities are live
//	    with the needed rights — and then the bytes really moved;
//	I2  immediately after a revocation settles, every capability the
//	    model marks dead is unusable;
//	I3  rights never grow along any derivation/delegation chain;
//	I4  the run is deterministic (same seed → same trace).
//
// Note on cids: like POSIX file descriptors, capability indices are
// recycled after an explicit Drop — but NOT after an OS-initiated
// purge (revocation cleanup, stale epochs): those slots are
// tombstoned so a stale handle can never alias a new capability. The
// model still discards dead handles right after checking I2, since
// they have no further behaviour worth modelling.

import (
	"fmt"
	"math/rand"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// shadowCap mirrors one capability handle held by one process.
type shadowCap struct {
	holder int
	c      proc.Cap
	obj    *shadowObj
	rights cap.Rights
}

// shadowObj mirrors one Memory object (possibly a derived view).
type shadowObj struct {
	id       int
	owner    int // process index whose arena backs it
	base     int
	size     int
	rights   cap.Rights // object-level rights at the owner
	revoked  bool
	parent   *shadowObj
	children []*shadowObj
}

func (o *shadowObj) revoke() {
	if o.revoked {
		return
	}
	o.revoked = true
	for _, c := range o.children {
		c.revoke()
	}
}

func runStress(t *testing.T, seed int64) []string {
	t.Helper()
	const arena = 1 << 14
	const maxRoots = 24
	const rootSlab = arena / maxRoots
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	logf := func(format string, args ...interface{}) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}

	run(t, core.ClusterConfig{Nodes: 3}, func(tk *sim.Task, cl *core.Cluster) {
		procs := make([]*proc.Process, 3)
		roots := make([]int, 3) // next free slab per proc
		for i := range procs {
			procs[i] = proc.Attach(cl, i, fmt.Sprintf("stress%d", i), arena)
			rng.Read(procs[i].Arena())
		}
		var caps []*shadowCap
		nextObj := 0

		// settleRevocation checks I2 for every newly dead handle and
		// drops them from the pool (their cids may be recycled).
		settleRevocation := func(step int) {
			tk.Sleep(300 * 1000)
			var live []*shadowCap
			for _, sc := range caps {
				if !sc.obj.revoked && liveChain(sc.obj) {
					live = append(live, sc)
					continue
				}
				// I2: any use must fail.
				if _, err := procs[sc.holder].MemoryDiminish(tk, sc.c, 0, 1, 0); err == nil {
					t.Fatalf("step %d: dead capability o%d still usable by p%d", step, sc.obj.id, sc.holder)
				}
			}
			caps = live
		}

		for step := 0; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // create a root object in a fresh slab
				holder := rng.Intn(3)
				if roots[holder] >= maxRoots {
					continue
				}
				base := roots[holder] * rootSlab
				roots[holder]++
				size := 1 + rng.Intn(rootSlab)
				c, err := procs[holder].MemoryCreate(tk, uint64(base), uint64(size), cap.MemRights)
				if err != nil {
					t.Fatalf("step %d create: %v", step, err)
				}
				nextObj++
				obj := &shadowObj{id: nextObj, owner: holder, base: base, size: size, rights: cap.MemRights}
				caps = append(caps, &shadowCap{holder: holder, c: c, obj: obj, rights: cap.MemRights})
				logf("%d create p%d o%d", step, holder, obj.id)

			case op < 5 && len(caps) > 0: // diminish a live cap
				sc := caps[rng.Intn(len(caps))]
				off := rng.Intn(sc.obj.size)
				size := 1 + rng.Intn(sc.obj.size-off)
				drop := cap.Rights(rng.Intn(2)) * cap.Write
				c, err := procs[sc.holder].MemoryDiminish(tk, sc.c, uint64(off), uint64(size), drop)
				if err != nil {
					t.Fatalf("step %d diminish of live cap: %v", step, err)
				}
				nextObj++
				obj := &shadowObj{
					id: nextObj, owner: sc.obj.owner, base: sc.obj.base + off, size: size,
					rights: sc.obj.rights.Diminish(drop), parent: sc.obj,
				}
				sc.obj.children = append(sc.obj.children, obj)
				nsc := &shadowCap{holder: sc.holder, c: c, obj: obj, rights: sc.rights.Diminish(drop)}
				caps = append(caps, nsc)
				// I3: rights never grow.
				if nsc.rights&^sc.rights != 0 {
					t.Fatalf("step %d: diminish grew rights", step)
				}
				logf("%d diminish p%d o%d->o%d", step, sc.holder, sc.obj.id, obj.id)

			case op < 7 && len(caps) > 0: // delegate (bootstrap grant)
				sc := caps[rng.Intn(len(caps))]
				to := rng.Intn(3)
				g, err := proc.GrantCap(procs[sc.holder], sc.c, procs[to])
				if err != nil {
					t.Fatalf("step %d grant of live cap failed: %v", step, err)
				}
				nsc := &shadowCap{holder: to, c: g, obj: sc.obj, rights: sc.rights}
				caps = append(caps, nsc)
				if nsc.rights&^sc.rights != 0 {
					t.Fatalf("step %d: delegation grew rights", step)
				}
				logf("%d delegate o%d p%d->p%d", step, sc.obj.id, sc.holder, to)

			case op < 8 && len(caps) > 0: // revoke
				sc := caps[rng.Intn(len(caps))]
				if err := procs[sc.holder].Revoke(tk, sc.c); err != nil {
					t.Fatalf("step %d revoke of live cap failed: %v", step, err)
				}
				sc.obj.revoke()
				logf("%d revoke o%d", step, sc.obj.id)
				settleRevocation(step)

			default: // copy between two random live caps of one holder
				if len(caps) < 2 {
					continue
				}
				src := caps[rng.Intn(len(caps))]
				dst := caps[rng.Intn(len(caps))]
				if src.holder != dst.holder || src.obj == dst.obj || overlaps(src.obj, dst.obj) {
					continue
				}
				p := procs[src.holder]
				err := p.MemoryCopy(tk, src.c, dst.c)
				wantOK := src.rights.Has(cap.Read) && dst.rights.Has(cap.Write) &&
					src.obj.rights.Has(cap.Read) && dst.obj.rights.Has(cap.Write) &&
					dst.obj.size >= src.obj.size
				if (err == nil) != wantOK {
					t.Fatalf("step %d copy o%d->o%d: err=%v, model ok=%v", step, src.obj.id, dst.obj.id, err, wantOK)
				}
				if wantOK && !wire.IsStatus(err, wire.StatusOK) && err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err == nil {
					// I1: the bytes really moved.
					want := procs[src.obj.owner].Arena()[src.obj.base : src.obj.base+src.obj.size]
					got := procs[dst.obj.owner].Arena()[dst.obj.base : dst.obj.base+src.obj.size]
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("step %d copy o%d->o%d: byte %d mismatch", step, src.obj.id, dst.obj.id, i)
						}
					}
					logf("%d copy o%d->o%d", step, src.obj.id, dst.obj.id)
				}
			}
		}
	})
	return trace
}

// liveChain reports whether the object and all ancestors are alive.
func liveChain(o *shadowObj) bool {
	for n := o; n != nil; n = n.parent {
		if n.revoked {
			return false
		}
	}
	return true
}

// overlaps reports whether two objects share arena bytes (same owner).
func overlaps(a, b *shadowObj) bool {
	if a.owner != b.owner {
		return false
	}
	return a.base < b.base+b.size && b.base < a.base+a.size
}

func TestCapabilityShadowModelStress(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runStress(t, seed)
		})
	}
}

// TestStressDeterministic: the same seed yields the identical
// operation trace (I4).
func TestStressDeterministic(t *testing.T) {
	a := runStress(t, 42)
	b := runStress(t, 42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}
