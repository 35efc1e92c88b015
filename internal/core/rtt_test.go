package core

import (
	"testing"
	"time"

	fcap "fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

const (
	tus = sim.Time(time.Microsecond)
	tms = sim.Time(time.Millisecond)
)

// TestRTOEstimator pins the timer arithmetic: the RFC 6298 update, the
// 2·SRTT lower bound, the two constants, and the backoff a timeout
// leaves behind. With constant samples R, SRTT stays at R and RTTVAR
// decays from R/2 by a quarter per sample, in integer nanoseconds, to
// 3 ns, where −3/4 truncates to 0: SRTT + 4·RTTVAR = R + 12 ns, so the
// timeout is 2·SRTT = 2R.
func TestRTOEstimator(t *testing.T) {
	repeat := func(r sim.Time, n int) []sim.Time {
		out := make([]sim.Time, n)
		for i := range out {
			out[i] = r
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		samples  []sim.Time
		backoff  sim.Time // set after the samples, as a timed-out resend does
		min, max sim.Time // rto() must land in [min, max]
	}{
		{name: "no sample yet", min: rtoInitial, max: rtoInitial},
		{name: "first sample: SRTT=R, RTTVAR=R/2", samples: []sim.Time{100 * tus}, min: 300 * tus, max: 300 * tus},
		{name: "fast path: 2·SRTT", samples: repeat(5*tus, 30), min: 10 * tus, max: 10 * tus},
		{name: "slow path clamps at the ceiling", samples: repeat(10*tms, 30), min: rtoCeiling, max: rtoCeiling},
		// The trade-off of a bound relative to the path: on a steady,
		// jitter-free path a loss costs 2·SRTT, where under a 40 µs floor
		// it cost max(SRTT + 12 ns, 40 µs) — 200.012 µs here.
		{name: "steady 200 µs: 2·SRTT", samples: repeat(200*tus, 60), min: 400 * tus, max: 400 * tus},
		// Jitter d on every other frame of an a-µs path: SRTT swings
		// between a + 7d/15 and a + 8d/15 (α = 1/8) and every sample
		// deviates from it by 8d/15, so RTTVAR → 8d/15 and the timeout
		// SRTT + 32d/15 lands in [a + 39d/15, a + 40d/15] = [57, 58.3] µs
		// for a = 5 µs and the chaos suites' d = 20 µs, where 2·SRTT is
		// at most 31.3 µs: 4·RTTVAR dominates.
		{name: "5 µs path, 20 µs jitter on every other frame: 4·RTTVAR", samples: append(repeat(5*tus, 1), alternate(5*tus, 25*tus, 60)...), min: 5*tus + 39*20*tus/15, max: 5*tus + 40*20*tus/15},
		{name: "alternating 10/90 µs covers the slow mode", samples: append(repeat(10*tus, 1), alternate(10*tus, 90*tus, 60)...), min: 90 * tus, max: 250 * tus},
		{name: "a timeout's backoff outlives the estimate", samples: repeat(5*tus, 30), backoff: 400 * tus, min: 400 * tus, max: 400 * tus},
		{name: "backoff applies before any sample", backoff: rtoCeiling, min: rtoCeiling, max: rtoCeiling},
	} {
		var e rttEstimator
		for _, r := range tc.samples {
			e.sample(r)
		}
		e.backoff = tc.backoff
		if got := e.rto(); got < tc.min || got > tc.max {
			t.Errorf("%s: rto = %v, want within [%v, %v] (srtt %v, rttvar %v)", tc.name, got, tc.min, tc.max, e.srtt, e.rttvar)
		}
		if tc.backoff != 0 {
			e.sample(5 * tus)
			if e.backoff != 0 {
				t.Errorf("%s: a fresh sample left backoff at %v", tc.name, e.backoff)
			}
		}
	}
}

func alternate(a, b sim.Time, n int) []sim.Time {
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = a
		if i%2 == 1 {
			out[i] = b
		}
	}
	return out
}

// rtoRig is one real Controller whose only peer is a scripted endpoint:
// the test decides, for every copy of every request that arrives,
// whether and how much later it is answered. (A real peer answers each
// copy too: the first by executing, the rest from its at-most-once
// cache.) The fabric adds ≈ 5 µs of round trip to the scripted delay.
type rtoRig struct {
	t    *testing.T
	k    *sim.Kernel
	net  *fabric.Net
	c    *Controller
	peer *fabric.Endpoint

	// The calls under test are the validation rounds of memory copies
	// issued on behalf of proc, a bare endpoint: it sees each copy's
	// completion, sent at doneAt.
	proc   *fabric.Endpoint
	tokens uint64
	doneAt sim.Time

	// answer is consulted per arriving request frame: copy counts the
	// frames seen under that token, this one included.
	answer func(token uint64, copy int) (delay sim.Time, ok bool)
	copies map[uint64]int
	frames int // request frames that reached the peer
}

const rigPeer = fcap.ControllerID(2)

func newRTORig(t *testing.T) *rtoRig {
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	net.InstallFaults(fabric.Faults{})
	r := &rtoRig{t: t, k: k, net: net, copies: make(map[uint64]int)}
	r.c = New(k, net, 1, Config{Loc: fabric.Location{Node: 0, Domain: fabric.Host}})
	r.peer = net.Attach("scripted-peer", fabric.Location{Node: 1, Domain: fabric.Host}, 0)
	r.c.AddPeer(rigPeer, r.peer.ID)
	r.proc = r.c.AttachProcess(1, "rig-proc", fabric.Location{Node: 0, Domain: fabric.Host}, 0, nil)
	net.SetTrace(func(ev fabric.TraceEvent) {
		if ev.To == r.proc.ID {
			r.doneAt = ev.At
		}
	})
	k.Spawn("scripted-peer", func(tk *sim.Task) {
		for {
			d, ok := r.peer.Inbox.Recv(tk)
			if !ok {
				return
			}
			m, isReq := d.Msg.(*wire.CtrlValidate)
			if !isReq {
				continue
			}
			r.frames++
			r.copies[m.Token]++
			if delay, ok := r.answer(m.Token, r.copies[m.Token]); ok {
				token := m.Token
				k.After(delay, func() {
					if !net.Send(r.peer.ID, r.c.EndpointID(), &wire.CtrlValInfo{Token: token, Status: wire.StatusOK}) {
						t.Error("scripted reply refused")
					}
				})
			}
		}
	})
	return r
}

// run executes body as the test's main task and drains the kernel.
func (r *rtoRig) run(body func(tk *sim.Task)) {
	done := false
	r.k.Spawn("rto-main", func(tk *sim.Task) {
		body(tk)
		done = true
		r.peer.Inbox.Close()
	})
	r.k.Run()
	r.k.Shutdown()
	if !done {
		r.t.Fatal("main task did not complete")
	}
	if n := len(r.c.pending); n != 0 {
		r.t.Errorf("%d calls still pending after the run", n)
	}
}

// validate issues one inter-Controller call to the scripted peer and
// waits for it: the status it resolved with and how long that took. The
// call is the validation of a memory copy's destination — a copy of no
// bytes, which completes with the call's status the instant it resolves.
func (r *rtoRig) validate(tk *sim.Task) (wire.Status, sim.Time) {
	start := tk.Now()
	r.tokens++
	op := r.c.getCopyOp(r.c.procs[1], r.tokens)
	op.state = copyLocateDst
	op.locate(fcap.Ref{Ctrl: rigPeer, Obj: 1, Epoch: 1}, fcap.Write)
	d, ok := r.proc.Inbox.Recv(tk)
	if !ok {
		r.t.Fatal("the copy never completed")
	}
	cm, ok := d.Msg.(*wire.Completion)
	if !ok || cm.Token != r.tokens {
		r.t.Fatalf("rig-proc received %+v, want the completion of copy %d", d.Msg, r.tokens)
	}
	return cm.Status, r.doneAt - start
}

func (r *rtoRig) est() *rttEstimator { return &r.c.peers[rigPeer].rtt }

// TestRTOKarn: a call that had to be resent contributes no sample — its
// reply cannot be matched to one of its sends — and the next clean call
// does.
func TestRTOKarn(t *testing.T) {
	r := newRTORig(t)
	r.answer = func(token uint64, copy int) (sim.Time, bool) {
		return 0, token != 1 || copy >= 2 // the first frame of the first call is "lost"
	}
	r.run(func(tk *sim.Task) {
		if st, took := r.validate(tk); st != wire.StatusOK || took < rtoInitial {
			t.Fatalf("resent call: status %v after %v, want OK after the initial RTO (%v)", st, took, rtoInitial)
		}
		if got := r.c.Metrics().Retransmits; got != 1 {
			t.Fatalf("%d retransmits, want 1", got)
		}
		if e := r.est(); e.srtt != 0 {
			t.Fatalf("the resent call fed the estimator: srtt = %v", e.srtt)
		}
		if e := r.est(); e.backoff != 2*rtoInitial {
			t.Errorf("backoff after one timeout = %v, want %v", e.backoff, 2*rtoInitial)
		}
		if st, took := r.validate(tk); st != wire.StatusOK || took > 10*tus {
			t.Fatalf("clean call: status %v after %v", st, took)
		}
		if e := r.est(); e.srtt == 0 || e.srtt > 10*tus || e.backoff != 0 {
			t.Errorf("clean call did not sample: srtt = %v, backoff = %v", e.srtt, e.backoff)
		}
	})
}

// TestRTOStepConverges: the round trip steps from ≈ 5 µs to ≈ 200 µs
// (a peer that starts queueing behind bulk traffic). The estimator sits
// at 2·SRTT, so the first calls after the step are resent before their
// replies arrive; Karn's backoff must carry the timeout past the new
// round trip so that sampling resumes. Each timeout is one spurious
// resend and doubles the timer, and the backoff outlives the call, so
// the stated bound is the number of doublings from 2·SRTT to the new
// round trip: 5 (9.4 µs → 302 µs), all within the first 3 calls after
// the step. Under a 40 µs floor that count was 3 (40 µs → 320 µs).
func TestRTOStepConverges(t *testing.T) {
	const (
		before, after = 50, 50
		settleCalls   = 3
	)
	r := newRTORig(t)
	delay := sim.Time(0)
	r.answer = func(uint64, int) (sim.Time, bool) { return delay, true }
	r.run(func(tk *sim.Task) {
		for i := 0; i < before; i++ {
			r.validate(tk)
		}
		e := r.est()
		if got := e.rto(); got != 2*e.srtt {
			t.Errorf("rto on a %v path = %v, want 2·SRTT", e.srtt, got)
			return
		}
		if got := r.c.Metrics().Retransmits; got != 0 {
			t.Errorf("%d retransmits on a loss-free steady path", got)
			return
		}
		delay = 195 * tus
		newRTT := e.srtt + delay
		maxSpurious := int64(0)
		for rto := e.rto(); rto < newRTT; rto *= 2 {
			maxSpurious++
		}
		for i := 0; i < after; i++ {
			resent := r.c.Metrics().Retransmits
			if st, _ := r.validate(tk); st != wire.StatusOK {
				t.Fatalf("call %d after the step: %v", i, st)
			}
			// Late replies to resent copies are still in flight; let them
			// land so every call starts from a quiet wire.
			tk.Sleep(tms)
			if r.c.Metrics().Retransmits != resent && i >= settleCalls {
				t.Errorf("call %d after the step was still resent (rto %v)", i, r.est().rto())
			}
		}
		if got := r.c.Metrics().Retransmits; got > maxSpurious {
			t.Errorf("%d spurious resends across the step, want <= %d", got, maxSpurious)
		}
		if got := r.est().rto(); got < newRTT || got > 2*newRTT {
			t.Errorf("rto %d calls after the step = %v, want within [%v, %v]", after, got, newRTT, 2*newRTT)
		}
	})
}

// TestRTOResetOnPeerEpoch: a peer's new incarnation is a new path —
// nothing measured against the old one times calls to it.
func TestRTOResetOnPeerEpoch(t *testing.T) {
	r := newRTORig(t)
	r.answer = func(uint64, int) (sim.Time, bool) { return 0, true }
	r.run(func(tk *sim.Task) {
		for i := 0; i < 10; i++ {
			r.validate(tk)
		}
		if r.est().srtt == 0 {
			t.Fatal("no estimate after 10 clean calls")
		}
		if !r.net.Send(r.peer.ID, r.c.EndpointID(), &wire.CtrlEpoch{Ctrl: rigPeer, Epoch: 2}) {
			t.Fatal("epoch announcement refused")
		}
		tk.Sleep(tms)
		if e := r.est(); *e != (rttEstimator{}) || e.rto() != rtoInitial {
			t.Errorf("estimator after the peer's epoch bump = %+v (rto %v), want zeroed (rto %v)", *e, e.rto(), rtoInitial)
		}
	})
}

// TestRPCDeadline: one budget per call. An outage that heals inside it
// is masked and over within one ceiling of the heal; one that does not
// aborts the call at the budget, once.
func TestRPCDeadline(t *testing.T) {
	for _, tc := range []struct {
		name        string
		healAt      sim.Time // the peer answers nothing before this; 0 = never
		wantStatus  wire.Status
		min, max    sim.Time // completion time since the call
		wantAborted int64
	}{
		{name: "partition healed at 100 ms is masked", healAt: 100 * tms,
			wantStatus: wire.StatusOK, min: 100 * tms, max: 100*tms + rtoCeiling + 10*tus},
		{name: "partition that never heals aborts at the budget", healAt: 0,
			wantStatus: wire.StatusAborted, min: RPCBudget, max: RPCBudget, wantAborted: 1},
	} {
		r := newRTORig(t)
		r.answer = func(uint64, int) (sim.Time, bool) {
			return 0, tc.healAt != 0 && r.k.Now() >= tc.healAt
		}
		r.run(func(tk *sim.Task) {
			st, took := r.validate(tk)
			if st != tc.wantStatus || took < tc.min || took > tc.max {
				t.Errorf("%s: %v after %v, want %v within [%v, %v]", tc.name, st, took, tc.wantStatus, tc.min, tc.max)
			}
		})
		// The run has drained: had a retired call left a timer behind, it
		// would have fired by now.
		m := r.c.Metrics()
		if m.RPCAborted != tc.wantAborted {
			t.Errorf("%s: RPCAborted = %d, want %d", tc.name, m.RPCAborted, tc.wantAborted)
		}
		// Backoff doubles from rtoInitial to the ceiling, then probes
		// once per ceiling: the resend count is what bounds the wire
		// cost of an outage.
		if most := int64(tc.max/rtoCeiling) + 3; m.Retransmits == 0 || m.Retransmits > most {
			t.Errorf("%s: %d retransmits, want within [1, %d]", tc.name, m.Retransmits, most)
		}
		if int64(r.frames) != m.Retransmits+1 {
			t.Errorf("%s: peer saw %d frames for %d retransmits", tc.name, r.frames, m.Retransmits)
		}
	}
}
