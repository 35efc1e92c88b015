package core_test

import (
	"bytes"
	"testing"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
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

// holder is a Process on node 0 holding capabilities to objects of a
// Process on node 1, for a syscall its own Controller must refuse.
type holder struct {
	app             *proc.Process
	req, mem        proc.Cap // the owner's Request and Memory (all rights)
	noRead, noWrite proc.Cap // the owner's Memory without Read, without Write
	noGrant, local  proc.Cap // the owner's Memory without Grant; app's own Memory
	dropped         proc.Cap // a capability app no longer holds
}

// TestHolderRefusals drives every syscall that names a capability with
// one its Controller must refuse before asking the object's owner: a
// wrong kind fails StatusKind, a Memory capability without the right
// the syscall needs StatusPerm, and a cid not held, for the syscalls
// that check neither (the monitors' are in TestSyscallRefusals),
// StatusNoCap. Each refusal is made at the holder: not one frame
// crosses the switch, and an invocation's refusal is counted in
// InvokesRefused. (A Request entry always carries cap.ReqRights, so
// the Invoke and Grant rights of a Request cannot be missing.)
func TestHolderRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		want   wire.Status
		invoke bool // counted in InvokesRefused
		do     func(tk *sim.Task, h *holder) error
	}{
		{"request_invoke of a Memory capability", wire.StatusKind, true, func(tk *sim.Task, h *holder) error {
			return h.app.Invoke(tk, h.mem, nil, nil)
		}},
		{"request_invoke passing an argument without Grant", wire.StatusPerm, true, func(tk *sim.Task, h *holder) error {
			return h.app.Invoke(tk, h.req, nil, []proc.Arg{{Slot: 0, Cap: h.noGrant}})
		}},
		{"request_invoke declaring a Memory capability its reply", wire.StatusKind, true, func(tk *sim.Task, h *holder) error {
			_, err := h.app.CallWith(tk, h.req, nil, nil, h.mem, wire.ReplyTag)
			return err
		}},
		{"request_create derived from a Memory capability", wire.StatusKind, false, func(tk *sim.Task, h *holder) error {
			_, err := h.app.Derive(tk, h.mem, nil, nil)
			return err
		}},
		{"request_create passing an argument without Grant", wire.StatusPerm, false, func(tk *sim.Task, h *holder) error {
			_, err := h.app.Derive(tk, h.req, nil, []proc.Arg{{Slot: 0, Cap: h.noGrant}})
			return err
		}},
		{"memory_diminish of a Request", wire.StatusKind, false, func(tk *sim.Task, h *holder) error {
			_, err := h.app.MemoryDiminish(tk, h.req, 0, 8, 0)
			return err
		}},
		{"memory_copy from a Request", wire.StatusKind, false, func(tk *sim.Task, h *holder) error {
			return h.app.MemoryCopy(tk, h.req, h.local)
		}},
		{"memory_copy into a Request", wire.StatusKind, false, func(tk *sim.Task, h *holder) error {
			return h.app.MemoryCopy(tk, h.local, h.req)
		}},
		{"memory_copy from Memory without Read", wire.StatusPerm, false, func(tk *sim.Task, h *holder) error {
			return h.app.MemoryCopy(tk, h.noRead, h.local)
		}},
		{"memory_copy into Memory without Write", wire.StatusPerm, false, func(tk *sim.Task, h *holder) error {
			return h.app.MemoryCopy(tk, h.local, h.noWrite)
		}},
		{"cap_create_revtree of a capability not held", wire.StatusNoCap, false, func(tk *sim.Task, h *holder) error {
			_, err := h.app.Revtree(tk, h.dropped)
			return err
		}},
		{"cap_revoke of a capability not held", wire.StatusNoCap, false, func(tk *sim.Task, h *holder) error {
			return h.app.Revoke(tk, h.dropped)
		}},
		{"cap_drop of a capability not held", wire.StatusNoCap, false, func(tk *sim.Task, h *holder) error {
			return h.app.Drop(tk, h.dropped)
		}},
	} {
		run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			h, err := newHolder(tk, cl)
			if err != nil {
				t.Errorf("%s: set-up: %v", tc.name, err)
				return
			}
			ctrl := cl.CtrlFor(0)
			refused, net := ctrl.Metrics().InvokesRefused, cl.Net.Stats()
			if err := tc.do(tk, h); !wire.IsStatus(err, tc.want) {
				t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
			}
			if n := cl.Net.Stats().Sub(net).CrossNodeMsgs; n != 0 {
				t.Errorf("%s: %d frames crossed the switch for a refusal the holder must make", tc.name, n)
			}
			if n := ctrl.Metrics().InvokesRefused - refused; tc.invoke && n != 1 {
				t.Errorf("%s: InvokesRefused moved by %d, want 1", tc.name, n)
			}
		})
	}
}

func newHolder(tk *sim.Task, cl *core.Cluster) (*holder, error) {
	owner := proc.Attach(cl, 1, "owner", 64)
	h := &holder{app: proc.Attach(cl, 0, "app", 64)}
	var err error
	grant := func(mint func() (proc.Cap, error)) proc.Cap {
		var c proc.Cap
		if err == nil {
			c, err = mint()
		}
		if err == nil {
			c, err = proc.GrantCap(owner, c, h.app)
		}
		return c
	}
	mem := func(r cap.Rights) func() (proc.Cap, error) {
		return func() (proc.Cap, error) { return owner.MemoryCreate(tk, 0, 64, r) }
	}
	h.req = grant(func() (proc.Cap, error) { return owner.RequestCreate(tk, 1, nil, nil) })
	h.mem = grant(mem(cap.MemRights))
	h.noRead = grant(mem(cap.Write | cap.Grant))
	h.noWrite = grant(mem(cap.Read | cap.Grant))
	h.noGrant = grant(mem(cap.Read | cap.Write))
	if err == nil {
		h.local, err = h.app.MemoryCreate(tk, 0, 64, cap.MemRights)
	}
	if err == nil {
		r := &refusal{app: h.app}
		h.dropped, err = r.dropped(tk)
	}
	tk.Sleep(us(100)) // set-up's traffic is over
	return h, err
}

// TestHandBackDropsReissuedCid: a receiver that hands back a delivered
// capability whose slot was reissued — its cid carries generation 1,
// after the OS purged the slot's previous entry — drops exactly that
// entry: the DeliverDone names the slot with its generation.
func TestHandBackDropsReissuedCid(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		srv := proc.Attach(cl, 1, "srv", 64)
		cli := proc.Attach(cl, 0, "cli", 64)
		mem, err := srv.MemoryCreate(tk, 0, 64, cap.MemRights)
		var req, creq, child, arg proc.Cap
		if err == nil {
			req, err = srv.RequestCreate(tk, 1, nil, nil)
		}
		if err == nil {
			creq, err = proc.GrantCap(srv, req, cli)
		}
		if err == nil {
			child, err = srv.Revtree(tk, mem)
		}
		if err == nil {
			err = srv.Revoke(tk, child) // purges srv's entry: its slot recycles under generation 1
		}
		if err == nil {
			arg, err = cli.MemoryCreate(tk, 0, 64, cap.MemRights)
		}
		if err != nil {
			t.Fatal(err)
		}
		var got cap.CapID
		srv.Handle(func(d *proc.Delivery) {
			got = d.Caps[0].Cid
			d.Finish() // hands the argument back
		})
		if err := cli.Invoke(tk, creq, nil, []proc.Arg{{Slot: 0, Cap: arg}}); err != nil {
			t.Fatal(err)
		}
		tk.Sleep(us(100))
		if got>>24 == 0 {
			t.Fatalf("the delivered cid %#x did not reuse a purged slot", got)
		}
		ctrl := cl.CtrlFor(1)
		if _, ok := ctrl.EntryOf(srv.ID(), got); ok {
			t.Errorf("the handed-back entry %#x is still installed", got)
		}
		for _, c := range []proc.Cap{mem, req} {
			if _, ok := ctrl.EntryOf(srv.ID(), c.ID()); !ok {
				t.Errorf("the hand-back dropped srv's entry %#x too", c.ID())
			}
		}
	})
}

// inFlight partitions node 1 away, starts a syscall of app on node 0
// whose question to node 1 the partition loses, and while it waits
// drops the capability c it named and grants app next, which takes c's
// slot under c's very cid (a dropped slot keeps its generation). Then
// it heals the partition and waits until the retransmitted question is
// answered. It reports whether set-up went as planned.
func inFlight(t *testing.T, tk *sim.Task, cl *core.Cluster, app *proc.Process, c proc.Cap, next func() (proc.Cap, error), syscall func(*sim.Task)) bool {
	cl.Net.PartitionNodes([]int{1})
	done := false
	cl.K.Spawn("syscall", func(st *sim.Task) {
		syscall(st)
		done = true
	})
	tk.Sleep(us(10))
	if err := app.Drop(tk, c); err != nil {
		t.Error(err)
		return false
	}
	if n, err := next(); err != nil || n.ID() != c.ID() {
		t.Errorf("the next grant took cid %#x (%v), want the dropped %#x", n.ID(), err, c.ID())
		return false
	}
	cl.Net.HealPartitions()
	tk.Sleep(us(10000))
	if !done {
		t.Error("the syscall did not complete")
	}
	return done
}

// TestInFlightSyscallKeepsWhatItResolved: a syscall that waits on a
// remote owner acts on the entries its cids named when it was issued,
// though the Process drops one of them and the slot is reissued while
// the owner's answer is delayed: a memory_diminish installs the
// diminished rights of the entry it named, and a memory_copy writes the
// object it named.
func TestInFlightSyscallKeepsWhatItResolved(t *testing.T) {
	t.Run("memory_diminish", func(t *testing.T) {
		run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			cl.Net.InstallFaults(fabric.Faults{})
			own := proc.Attach(cl, 1, "owner", 64)
			app := proc.Attach(cl, 0, "app", 64)
			mem, err := own.MemoryCreate(tk, 0, 64, cap.MemRights)
			var ro, c proc.Cap
			if err == nil {
				ro, err = own.MemoryCreate(tk, 0, 64, cap.Read)
			}
			if err == nil {
				c, err = proc.GrantCap(own, mem, app)
			}
			if err != nil {
				t.Fatal(err)
			}
			var child proc.Cap
			if !inFlight(t, tk, cl, app, c, func() (proc.Cap, error) { return proc.GrantCap(own, ro, app) }, func(st *sim.Task) {
				child, err = app.MemoryDiminish(st, c, 0, 32, cap.Write)
			}) {
				return
			}
			e, ok := cl.CtrlFor(0).EntryOf(app.ID(), child.ID())
			if err != nil || !ok || e.Rights != cap.Read|cap.Grant {
				t.Errorf("memory_diminish: %v; the new entry conveys %v (installed: %v), want %v", err, e.Rights, ok, cap.Read|cap.Grant)
			}
		})
	})
	t.Run("memory_copy", func(t *testing.T) {
		run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			cl.Net.InstallFaults(fabric.Faults{})
			own := proc.Attach(cl, 1, "owner", 64)
			app := proc.Attach(cl, 0, "app", 128)
			copy(own.Arena(), bytes.Repeat([]byte{0xab}, 64))
			src, err := own.MemoryCreate(tk, 0, 64, cap.MemRights)
			var dst, other proc.Cap
			if err == nil {
				src, err = proc.GrantCap(own, src, app)
			}
			if err == nil {
				dst, err = app.MemoryCreate(tk, 0, 64, cap.MemRights)
			}
			if err == nil {
				other, err = app.MemoryCreate(tk, 64, 64, cap.MemRights)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !inFlight(t, tk, cl, app, dst, func() (proc.Cap, error) { return proc.GrantCap(app, other, app) }, func(st *sim.Task) {
				err = app.MemoryCopy(st, src, dst)
			}) {
				return
			}
			want := bytes.Repeat([]byte{0xab}, 64)
			if err != nil || !bytes.Equal(app.Arena()[:64], want) || !bytes.Equal(app.Arena()[64:], make([]byte, 64)) {
				t.Errorf("memory_copy: %v; the named object reads %x, the other %x", err, app.Arena()[:64], app.Arena()[64:])
			}
		})
	})
}
