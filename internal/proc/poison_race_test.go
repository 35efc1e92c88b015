//go:build race

package proc

import (
	"strings"
	"testing"

	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/sim"
)

// TestLateReplyFindsReleasedCallOp is the negative test of the race
// build's call-record quarantine, which has no knob and is therefore
// active in every test `make race` runs. A reply routed to a call that
// is over — its reply Request went back to the set with its tag still
// registered — would, in a normal build, step whichever Call had reused
// the record. Here the next Call gets a record of its own, and the stale
// reply trips the assert.
func TestLateReplyFindsReleasedCallOp(t *testing.T) {
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	loc := fabric.Location{Node: 0}
	p := AttachTo(k, net, core.New(k, net, 1, core.Config{Loc: loc}), 1, "p", loc, 0)
	stale := p.getCallOp()
	p.putCallOp(stale)
	next := p.getCallOp()
	if next == stale {
		t.Fatal("a released call record was recycled under the race detector")
	}
	next.state = callWaiting // a call that would have taken the reply for its own
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "a reply for a call") {
			t.Errorf("a reply delivered to a released record: recovered %q, want the assert", msg)
		}
		if next.dv != nil {
			t.Error("the stale reply stepped the next call")
		}
	}()
	stale.delivered(&Delivery{p: p})
}
