// Package simdetdata exercises the simdet analyzer: package time,
// global math/rand, raw goroutines, and order-sensitive map ranges.
package simdetdata

import (
	"math/rand"
	"sort"
	"time"
)

type net struct{}

//fractos:ordered
func (n *net) Send(to uint32, payload string) {}

// Count is not marked: its calls commute.
func (n *net) Count(to uint32) {}

// handler mirrors fabric.Handler: the directive sits on the interface
// method, so a call through the interface counts.
type handler interface {
	//fractos:ordered
	Deliver(payload string)
}

type kernel struct{}

func (k *kernel) Spawn(name string, fn func()) {}
func (k *kernel) Now() int64                   { return 0 }

// wallClock demonstrates forbidden time calls.
func wallClock(k *kernel) {
	t0 := time.Now()              // want `time.Now: simulation code calls no function of package time`
	_ = time.Since(t0)            // want `time.Since: simulation code calls no function of package time`
	time.Sleep(time.Second)       // want `time.Sleep: simulation code calls no function of package time`
	<-time.After(time.Nanosecond) // want `time.After: simulation code calls no function of package time`
	_, _ = time.ParseDuration("") // want `time.ParseDuration: simulation code calls no function of package time`
	_ = k.Now()                   // virtual clock: fine
	_ = time.Duration(5)          // type conversions are fine
	_ = time.Millisecond.String() // a method of a constant: fine
}

// pacing shows the documented waiver.
func pacing() {
	//fractos:nondet-ok wall-clock pacing is an explicit opt-in feature
	_ = time.Now()
}

// globalRand demonstrates the global-source ban and the seeded
// alternative.
func globalRand() {
	_ = rand.Intn(10)                  // want `rand.Intn uses the global math/rand source`
	rand.Shuffle(3, func(i, j int) {}) // want `rand.Shuffle uses the global math/rand source`
	r := rand.New(rand.NewSource(42))  // seeded private source: fine
	_ = r.Intn(10)                     // method on a private source: fine
	_ = rand.NewZipf(r, 1.1, 1, 10)    // constructs a *rand.Zipf: fine
	_ = rand.Perm(3)                   // want `rand.Perm uses the global math/rand source`
}

// rawGoroutine escapes the cooperative scheduler.
func rawGoroutine(k *kernel) {
	go func() {}() // want `raw goroutine escapes the deterministic kernel`
	k.Spawn("worker", func() {})
}

// mapOrder publishes map iteration order into the message stream.
func mapOrder(n *net, h handler, peers map[uint32]string) {
	for id, p := range peers { // want `map iteration order feeds Send`
		n.Send(id, p)
	}
	for _, p := range peers { // want `map iteration order feeds Deliver`
		h.Deliver(p)
	}
	for id := range peers { // an unmarked method: fine
		n.Count(id)
	}

	// Sorted iteration: fine.
	ids := make([]uint32, 0, len(peers))
	for id := range peers { // collecting keys has no ordered effect
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n.Send(id, peers[id])
	}

	// Commutative mutation inside a map range: fine.
	total := 0
	for _, p := range peers {
		total += len(p)
	}
	_ = total

	//fractos:nondet-ok delivery order irrelevant in this diagnostic dump
	for id, p := range peers {
		n.Send(id, p)
	}
}
