//go:build race

package core

import (
	"strings"
	"testing"

	"fractos/internal/fabric"
	"fractos/internal/sim"
)

// TestLateCompletionFindsReleasedCopyOp is the negative test of the
// race build's copy-record quarantine, which has no knob and is
// therefore active in every test `make race` runs. An RDMA completion
// that outlived its copy — the bug ending a copy only inside an event
// it waited for prevents — would, in a normal build, step whichever
// copy had reused the record. Here the next copy gets a record of its
// own, and the stale completion trips the assert.
func TestLateCompletionFindsReleasedCopyOp(t *testing.T) {
	k := sim.New(1)
	c := New(k, fabric.New(k, fabric.DefaultProfile()), 1, Config{Loc: fabric.Location{Node: 0}})
	c.AttachProcess(1, "p", fabric.Location{Node: 0}, 0, nil)
	ps := c.procs[1]
	stale := c.getCopyOp(ps, 1)
	c.putCopyOp(stale)
	next := c.getCopyOp(ps, 2)
	if next == stale {
		t.Fatal("a released copy record was recycled under the race detector")
	}
	next.state, next.read = copyMoving, 1 // a copy that would have taken the completion for its own
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "copy op") {
			t.Errorf("a completion fired on a released record: recovered %q, want the assert", msg)
		}
		if next.state != copyMoving || next.landed != 0 {
			t.Error("the stale completion stepped the next copy")
		}
	}()
	(*copyReadDone)(stale).Fire()
}
