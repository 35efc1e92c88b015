package core_test

import (
	"errors"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// TestOwnerAnswersLocalAndRemoteAlike runs each owner-side step — the
// refusals and the successes of memory_diminish, request_create's
// derivation, cap_create_revtree, monitor_receive and cap_revoke — once
// for a holder whose own Controller owns the object and once for a
// holder on a peer Controller. Both must get the same status and, for a
// new capability, an entry of the same kind, rights and size: where the
// caller sits decides how the owner is asked, never what it answers.
//
// One asymmetry stays by design and is not a row: a revoked object's
// holders at the owner's Controller are purged at once (their next use
// is StatusNoCap), while holders at a peer are purged when the cleanup
// broadcast lands and get StatusRevoked from the owner until then.
func TestOwnerAnswersLocalAndRemoteAlike(t *testing.T) {
	type answer struct {
		st     wire.Status
		kind   cap.Kind
		rights cap.Rights
		size   uint64
	}
	type step func(tk *sim.Task, p *proc.Process, mem, req proc.Cap) (proc.Cap, error)
	rows := []struct {
		name string
		want wire.Status
		do   step
	}{
		{"diminish to zero bytes", wire.StatusBounds, func(tk *sim.Task, p *proc.Process, mem, _ proc.Cap) (proc.Cap, error) {
			return p.MemoryDiminish(tk, mem, 0, 0, 0)
		}},
		{"diminish past the object", wire.StatusBounds, func(tk *sim.Task, p *proc.Process, mem, _ proc.Cap) (proc.Cap, error) {
			return p.MemoryDiminish(tk, mem, 4000, 200, 0)
		}},
		{"derive over a preset immediate", wire.StatusImmutable, func(tk *sim.Task, p *proc.Process, _, req proc.Cap) (proc.Cap, error) {
			return p.Derive(tk, req, []wire.ImmArg{{Offset: 2, Data: []byte("x")}}, nil)
		}},
		{"diminish", wire.StatusOK, func(tk *sim.Task, p *proc.Process, mem, _ proc.Cap) (proc.Cap, error) {
			return p.MemoryDiminish(tk, mem, 64, 128, cap.Write)
		}},
		{"derive", wire.StatusOK, func(tk *sim.Task, p *proc.Process, _, req proc.Cap) (proc.Cap, error) {
			return p.Derive(tk, req, []wire.ImmArg{{Offset: 8, Data: []byte("more")}}, nil)
		}},
		{"revtree", wire.StatusOK, func(tk *sim.Task, p *proc.Process, mem, _ proc.Cap) (proc.Cap, error) {
			return p.Revtree(tk, mem)
		}},
		{"monitor_receive", wire.StatusOK, func(tk *sim.Task, p *proc.Process, mem, _ proc.Cap) (proc.Cap, error) {
			return proc.Cap{}, p.MonitorReceive(tk, mem, func() {})
		}},
		{"revoke", wire.StatusOK, func(tk *sim.Task, p *proc.Process, mem, _ proc.Cap) (proc.Cap, error) {
			child, err := p.Revtree(tk, mem)
			if err != nil {
				return proc.Cap{}, err
			}
			return proc.Cap{}, p.Revoke(tk, child)
		}},
	}

	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		owner := proc.Attach(cl, 0, "owner", 4096)
		mem, err := owner.MemoryCreate(tk, 0, 4096, cap.MemRights)
		if err != nil {
			t.Error(err)
			return
		}
		req, err := owner.RequestCreate(tk, 1, []wire.ImmArg{{Offset: 0, Data: []byte("preset")}}, nil)
		if err != nil {
			t.Error(err)
			return
		}
		where := [2]string{"the owner's Controller", "a peer"}
		holders := []*proc.Process{proc.Attach(cl, 0, "local", 0), proc.Attach(cl, 1, "remote", 0)}
		type grants struct{ mem, req proc.Cap }
		var held []grants
		for _, h := range holders {
			hm, err1 := proc.GrantCap(owner, mem, h)
			hr, err2 := proc.GrantCap(owner, req, h)
			if err := errors.Join(err1, err2); err != nil {
				t.Error(err)
				return
			}
			held = append(held, grants{hm, hr})
		}
		for _, row := range rows {
			var got [2]answer
			for i, h := range holders {
				c, err := row.do(tk, h, held[i].mem, held[i].req)
				a := answer{st: wire.StatusOK}
				var se *wire.StatusError
				if errors.As(err, &se) {
					a.st = se.Status
				} else if err != nil {
					t.Errorf("%s from %s: %v", row.name, where[i], err)
				}
				if c != (proc.Cap{}) {
					e, ok := cl.CtrlFor(i).EntryOf(h.ID(), c.ID())
					if !ok {
						t.Errorf("%s from %s: no entry at cid %v", row.name, where[i], c.ID())
					}
					a.kind, a.rights, a.size = e.Kind, e.Rights, e.Size
				}
				got[i] = a
			}
			if got[0].st != row.want {
				t.Errorf("%s: status %v, want %v", row.name, got[0].st, row.want)
			}
			if got[0] != got[1] {
				t.Errorf("%s: %s answered %+v, %s %+v", row.name, where[0], got[0], where[1], got[1])
			}
		}
	})
}
