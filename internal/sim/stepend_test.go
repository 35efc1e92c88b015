package sim_test

import (
	"slices"
	"testing"

	"fractos/internal/sim"
)

// logFire appends its note to a log, with the instant it fired at.
type logFire struct {
	k    *sim.Kernel
	log  *[]string
	note string
}

func (f *logFire) Fire() { *f.log = append(*f.log, f.k.Now().String()+" "+f.note) }

// stepEnds runs three steps at each of two instants — a task that parks,
// a task that finishes, a callback — each registering a step-end
// callback when mark is set, and returns the log and the events the run
// processed.
func stepEnds(mark bool) (log []string, events uint64) {
	k := sim.New(1)
	note := func(s string) { log = append(log, k.Now().String()+" "+s) }
	atEnd := func(s string) {
		if mark {
			k.AtStepEnd(&logFire{k, &log, s})
		}
	}
	k.Spawn("parks", func(t *sim.Task) {
		note("parks")
		atEnd("parks ended")
		t.Sleep(5)
		note("parks woke")
	})
	k.Spawn("returns", func(t *sim.Task) {
		note("returns")
		atEnd("returns ended")
		atEnd("returns ended again")
	})
	k.After(0, func() {
		note("callback")
		atEnd("callback ended")
		if mark {
			// A step-end callback may register another.
			k.AtStepEnd(&chainFire{k: k, next: &logFire{k, &log, "callback ended, chained"}})
		}
	})
	k.After(5, func() { note("late callback") })
	e0 := sim.TotalEvents()
	k.Run()
	return log, sim.TotalEvents() - e0
}

type chainFire struct {
	k    *sim.Kernel
	next sim.Callback
}

func (c *chainFire) Fire() { c.k.AtStepEnd(c.next) }

// TestAtStepEnd: a step-end callback fires when the step that registered
// it ends — its task parks or returns, its callback returns — at the
// same instant and before anything else runs, in registration order;
// one may register another, which fires at the same step end. It is no
// event: the run processes as many with the callbacks as without.
func TestAtStepEnd(t *testing.T) {
	got, events := stepEnds(true)
	want := []string{
		"0s parks", "0s parks ended",
		"0s returns", "0s returns ended", "0s returns ended again",
		"0s callback", "0s callback ended", "0s callback ended, chained",
		"5ns late callback", "5ns parks woke",
	}
	if !slices.Equal(got, want) {
		t.Errorf("ran\n%q\nwant\n%q", got, want)
	}
	if _, bare := stepEnds(false); events != bare {
		t.Errorf("%d events with step-end callbacks, %d without: want as many", events, bare)
	}
}
