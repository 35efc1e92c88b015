package core_test

import (
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// refusal is a Process on node 0 and one on node 1, each with a fresh
// Memory capability, for a syscall to be refused with.
type refusal struct {
	cl        *core.Cluster
	app, peer *proc.Process
	mem       proc.Cap // app's
	peerMem   proc.Cap // peer's
}

// dropped is a capability app created and no longer holds.
func (r *refusal) dropped(tk *sim.Task) (proc.Cap, error) {
	c, err := r.app.RequestCreate(tk, 1, nil, nil)
	if err == nil {
		err = r.app.Drop(tk, c)
	}
	return c, err
}

// TestSyscallRefusals drives every leg on which a Controller refuses a
// syscall for its argument, and checks the status it completes with: a
// refusal completes the syscall like a success, or the caller waits for
// ever.
func TestSyscallRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		want wire.Status
		do   func(tk *sim.Task, r *refusal) error
	}{
		{"request_create with an argument not held", wire.StatusNoCap, func(tk *sim.Task, r *refusal) error {
			c, err := r.dropped(tk)
			if err != nil {
				return err
			}
			_, err = r.app.RequestCreate(tk, 1, nil, []proc.Arg{{Slot: 0, Cap: c}})
			return err
		}},
		{"request_create with an immediate set twice", wire.StatusImmutable, func(tk *sim.Task, r *refusal) error {
			_, err := r.app.RequestCreate(tk, 1, []wire.ImmArg{proc.U64Arg(0, 1), proc.U64Arg(0, 2)}, nil)
			return err
		}},
		{"request_create with a slot filled twice", wire.StatusImmutable, func(tk *sim.Task, r *refusal) error {
			_, err := r.app.RequestCreate(tk, 1, nil, []proc.Arg{{Slot: 0, Cap: r.mem}, {Slot: 0, Cap: r.mem}})
			return err
		}},
		{"request_create from a parent not held", wire.StatusNoCap, func(tk *sim.Task, r *refusal) error {
			c, err := r.dropped(tk)
			if err != nil {
				return err
			}
			_, err = r.app.Derive(tk, c, nil, nil)
			return err
		}},
		{"monitor_delegate on a capability not held", wire.StatusNoCap, func(tk *sim.Task, r *refusal) error {
			c, err := r.dropped(tk)
			if err != nil {
				return err
			}
			return r.app.MonitorDelegate(tk, c, func() {})
		}},
		{"monitor_delegate on another Controller's object", wire.StatusBadArg, func(tk *sim.Task, r *refusal) error {
			c, err := proc.GrantCap(r.peer, r.peerMem, r.app)
			if err != nil {
				return err
			}
			return r.app.MonitorDelegate(tk, c, func() {})
		}},
		{"monitor_delegate on a revoked object", wire.StatusRevoked, func(tk *sim.Task, r *refusal) error {
			// The entry is installed again through the bootstrap path after
			// its object was revoked, which purged it.
			ctrl := r.cl.CtrlFor(0)
			e, _ := ctrl.EntryOf(r.app.ID(), r.mem.ID())
			if err := r.app.Revoke(tk, r.mem); err != nil {
				return err
			}
			cid, _ := ctrl.GrantEntry(r.app.ID(), e)
			c := r.app.CapFromDelivered(wire.DeliveredCap{Cid: cid, Kind: e.Kind, Rights: e.Rights, Size: e.Size})
			return r.app.MonitorDelegate(tk, c, func() {})
		}},
		{"monitor_delegate on an object with children", wire.StatusBadArg, func(tk *sim.Task, r *refusal) error {
			if _, err := r.app.Revtree(tk, r.mem); err != nil {
				return err
			}
			return r.app.MonitorDelegate(tk, r.mem, func() {})
		}},
		{"monitor_receive on a capability not held", wire.StatusNoCap, func(tk *sim.Task, r *refusal) error {
			c, err := r.dropped(tk)
			if err != nil {
				return err
			}
			return r.app.MonitorReceive(tk, c, func() {})
		}},
		{"memory_copy from an endpoint gone when the copy starts", wire.StatusAborted, func(tk *sim.Task, r *refusal) error {
			// With HWCopies the Controller commands one RDMA op, which
			// cannot start at a severed endpoint.
			c, err := proc.GrantCap(r.peer, r.peerMem, r.app)
			if err != nil {
				return err
			}
			r.cl.Net.Disconnect(r.peer.Endpoint())
			return r.app.MemoryCopy(tk, c, r.mem)
		}},
	} {
		run(t, testbed.Spec{Nodes: 2, Ctrl: core.Config{HWCopies: true}}, func(tk *sim.Task, cl *core.Cluster) {
			r := &refusal{cl: cl, app: proc.Attach(cl, 0, "app", 64), peer: proc.Attach(cl, 1, "peer", 64)}
			var err error
			if r.mem, err = r.app.MemoryCreate(tk, 0, 64, cap.MemRights); err == nil {
				r.peerMem, err = r.peer.MemoryCreate(tk, 0, 64, cap.MemRights)
			}
			if err != nil {
				t.Errorf("%s: set-up: %v", tc.name, err)
				return
			}
			if err := tc.do(tk, r); !wire.IsStatus(err, tc.want) {
				t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}
