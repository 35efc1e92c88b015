package load

import (
	"math/rand"

	"fractos/internal/sim"
)

// Stats is the result of one driver run: the latency histogram plus
// throughput bookkeeping.
type Stats struct {
	Hist     Hist
	Requests int // completed without error
	Errors   int
	Start    sim.Time // driver start (virtual)
	End      sim.Time // last completion (virtual)
	// InflightHWM is the in-flight high-water mark: for closed-loop
	// runs it equals the client count; for open-loop runs it exposes
	// queue growth past saturation.
	InflightHWM int
}

// Elapsed is the driver's total virtual duration.
func (s *Stats) Elapsed() sim.Time { return s.End - s.Start }

// Throughput returns completed requests per second of virtual time
// (goodput: errors are excluded).
func (s *Stats) Throughput() float64 {
	if s.End <= s.Start {
		return 0
	}
	return float64(s.Requests) / (float64(s.End-s.Start) / 1e9)
}

// Closed is a closed-loop driver: Clients concurrent workers each
// issue PerClient back-to-back requests (no think time). Zero values
// default to 1.
type Closed struct {
	Clients   int
	PerClient int
}

// Run drives req from the calling task's kernel and blocks until every
// request completed. req receives the worker index and the worker's
// request sequence number; its latency is the full call duration.
func (c Closed) Run(tk *sim.Task, req func(t *sim.Task, client, seq int) error) *Stats {
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.PerClient == 0 {
		c.PerClient = 1
	}
	k := tk.Kernel()
	st := &Stats{Start: tk.Now(), InflightHWM: c.Clients}
	var wg sim.WaitGroup
	wg.Add(c.Clients)
	for w := 0; w < c.Clients; w++ {
		w := w
		k.Spawn("load-closed", func(t *sim.Task) {
			for i := 0; i < c.PerClient; i++ {
				s0 := t.Now()
				err := req(t, w, i)
				if err != nil {
					st.Errors++
				} else {
					st.Requests++
					st.Hist.Record(t.Now() - s0)
				}
			}
			wg.Done()
		})
	}
	wg.Wait(tk)
	st.End = tk.Now()
	return st
}

// Open is an open-loop driver: Requests arrivals from a Poisson
// process with mean rate Rate (requests per second of virtual time),
// each served by its own spawned task regardless of whether earlier
// requests finished — offered load does not slow down when the system
// saturates, which is what exposes the saturation knee.
type Open struct {
	Rate     float64 // mean arrival rate, req/s; must be > 0
	Requests int
	Seed     int64 // arrival-process seed
}

// Arrivals returns the deterministic arrival offsets relative to the
// driver start: a pure function of (Rate, Requests, Seed), so the
// byte-stability of the arrival sequence is testable in isolation.
func (o Open) Arrivals() []sim.Time {
	rng := rand.New(rand.NewSource(o.Seed))
	out := make([]sim.Time, o.Requests)
	at := 0.0
	for i := range out {
		at += rng.ExpFloat64() / o.Rate * 1e9 // exponential interarrival, ns
		out[i] = sim.Time(at)
	}
	return out
}

// Run drives req open-loop and blocks until every request completed.
// Latency is measured from the request's scheduled arrival, so
// post-saturation queueing shows up in the percentiles.
func (o Open) Run(tk *sim.Task, req func(t *sim.Task, i int) error) *Stats {
	arrivals := o.Arrivals()
	r := &openRun{k: tk.Kernel(), req: req, st: &Stats{Start: tk.Now()}}
	r.k.Track("load arrival", &r.free)
	r.wg.Add(len(arrivals))
	base := tk.Now()
	for i := range arrivals {
		if d := base + arrivals[i] - tk.Now(); d > 0 {
			tk.Sleep(d)
		}
		r.inflight++
		r.st.InflightHWM = max(r.st.InflightHWM, r.inflight)
		a := r.getArrival()
		a.i, a.at = i, tk.Now()
		a.spawn()
	}
	r.wg.Wait(tk)
	r.st.End = tk.Now()
	return r.st
}

// openRun is one Open.Run: the state its arrivals' tasks share and the
// records they start from.
type openRun struct {
	k        *sim.Kernel
	req      func(t *sim.Task, i int) error
	st       *Stats
	wg       sim.WaitGroup
	inflight int
	free     sim.FreeList[arrival]
}

// arrival is request i, arrived at at, on its way into a task of its
// own: a pooled record whose task body, run, is bound once, so an
// arrival allocates no closure.
type arrival struct {
	r   *openRun
	i   int
	at  sim.Time
	run func(*sim.Task)
}

func (r *openRun) getArrival() *arrival {
	a := r.free.Get()
	if a.run == nil {
		a.r, a.run = r, a.serve
	}
	return a
}

func (r *openRun) putArrival(a *arrival) { r.free.Put(a) }

// spawn starts the arrival's task, which owns the record from then on.
func (a *arrival) spawn() { a.r.k.Spawn("load-open", a.run) }

// serve is the arrival's task: it puts the record back and issues the
// request.
func (a *arrival) serve(t *sim.Task) {
	r, i, at := a.r, a.i, a.at
	r.putArrival(a)
	err := r.req(t, i)
	r.inflight--
	if err != nil {
		r.st.Errors++
	} else {
		r.st.Requests++
		r.st.Hist.Record(t.Now() - at)
	}
	r.wg.Done()
}
