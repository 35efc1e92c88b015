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

// staleAlias sets up §3.6's stale alias: a client on node 0 holds a
// capability (made by mint) to an object of a Process on node 1; node 1
// is cut off from node 0 while its Controller crashes and reboots, so
// node 0 never learns the new epoch; a new Process on node 1 mints the
// same kind of object, which takes the old one's slot in the fresh
// tree; then the partition heals. It returns the client, its stale
// capability and the new Process, or a nil client if set-up failed.
// Only the owner's epoch fence now tells the two objects apart.
func staleAlias(t *testing.T, tk *sim.Task, cl *core.Cluster, mint func(*proc.Process) (proc.Cap, error)) (cli *proc.Process, stale proc.Cap, fresh *proc.Process) {
	cl.Net.InstallFaults(fabric.Faults{})
	old := proc.Attach(cl, 1, "old", 4096)
	cli = proc.Attach(cl, 0, "cli", 4096)
	c, err := mint(old)
	if err == nil {
		stale, err = proc.GrantCap(old, c, cli)
	}
	if err != nil {
		t.Error(err)
		return nil, stale, nil
	}
	cl.Net.PartitionNodes([]int{1})
	cl.CtrlFor(1).Crash()
	cl.CtrlFor(1).Reboot() // its CtrlEpoch is lost in the partition
	fresh = proc.Attach(cl, 1, "new", 4096)
	c, err = mint(fresh)
	if err != nil {
		t.Error(err)
		return nil, stale, nil
	}
	was, _ := cl.CtrlFor(0).EntryOf(cli.ID(), stale.ID())
	now, _ := cl.CtrlFor(1).EntryOf(fresh.ID(), c.ID())
	if was.Ref.Obj != now.Ref.Obj || was.Ref.Epoch == now.Ref.Epoch {
		t.Errorf("the new object %v does not alias the stale Ref %v", now.Ref, was.Ref)
		return nil, stale, nil
	}
	cl.Net.HealPartitions()
	return cli, stale, fresh
}

// epochFates are the two fates of the rebooted owner's epoch
// announcement at the stale holder in the stale-alias tests: lost in the
// partition, or announced again after the stale use, so that it arrives
// late.
var epochFates = []struct {
	name string
	late bool
}{{"lost", false}, {"late", true}}

// lateEpoch announces the rebooted owner's epoch after the stale use
// (node 1 owns, the holder cli is on node 0): the holder's Controller
// purges the stale entry, and use, a second use, fails without reaching
// the owner.
func lateEpoch(t *testing.T, tk *sim.Task, cl *core.Cluster, cli *proc.Process, stale proc.Cap, use func() error) {
	cl.CtrlFor(1).AnnounceEpoch()
	tk.Sleep(100 * 1000)
	if _, ok := cl.CtrlFor(0).EntryOf(cli.ID(), stale.ID()); ok {
		t.Error("the stale entry outlived its owner's late epoch announcement")
	}
	net := cl.Net.Stats()
	if err := use(); err == nil {
		t.Error("a use after the late announcement succeeded")
	}
	if n := cl.Net.Stats().Sub(net).CrossNodeMsgs; n != 0 {
		t.Errorf("%d frames crossed the switch for a use the holder must refuse", n)
	}
}

// TestStaleAliasInvokeFenced: invoking a Request through a Ref from
// before its owner's reboot fails stale-epoch, though the Ref's object
// slot now holds the new incarnation's Request; nothing is delivered
// to that one, whether the owner's epoch announcement never reaches the
// invoker or reaches it late.
func TestStaleAliasInvokeFenced(t *testing.T) {
	for _, fate := range epochFates {
		t.Run(fate.name, func(t *testing.T) {
			run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
				delivered := 0
				cli, stale, fresh := staleAlias(t, tk, cl, func(p *proc.Process) (proc.Cap, error) {
					return p.RequestCreate(tk, 99, nil, nil)
				})
				if cli == nil {
					return
				}
				fresh.Handle(func(d *proc.Delivery) {
					delivered++
					d.Done()
					d.Finish()
				})
				invoke := func() error { return cli.Invoke(tk, stale, nil, nil) }
				if err := invoke(); !wire.IsStatus(err, wire.StatusStale) {
					t.Errorf("invoke through the stale Ref: %v, want stale-epoch", err)
				}
				if fate.late {
					lateEpoch(t, tk, cl, cli, stale, invoke)
				}
				tk.Sleep(100 * 1000)
				if delivered != 0 {
					t.Errorf("the new incarnation's Request got %d deliveries meant for the old one", delivered)
				}
			})
		})
	}
}

// TestStaleAliasCopyFenced: a memory_copy into a Memory Ref from before
// its owner's reboot fails stale-epoch, though the Ref's object slot now
// holds the new incarnation's Memory; no byte reaches the new arena,
// whether the owner's epoch announcement never reaches the copier or
// reaches it late.
func TestStaleAliasCopyFenced(t *testing.T) {
	for _, fate := range epochFates {
		t.Run(fate.name, func(t *testing.T) {
			run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
				cli, stale, fresh := staleAlias(t, tk, cl, func(p *proc.Process) (proc.Cap, error) {
					return p.MemoryCreate(tk, 0, 64, cap.MemRights)
				})
				if cli == nil {
					return
				}
				copy(cli.Arena(), bytes.Repeat([]byte{0xab}, 64))
				src, err := cli.MemoryCreate(tk, 0, 64, cap.MemRights)
				if err != nil {
					t.Fatal(err)
				}
				copyIn := func() error { return cli.MemoryCopy(tk, src, stale) }
				if err := copyIn(); !wire.IsStatus(err, wire.StatusStale) {
					t.Errorf("copy into the stale Ref: %v, want stale-epoch", err)
				}
				if fate.late {
					lateEpoch(t, tk, cl, cli, stale, copyIn)
				}
				if got := fresh.Arena()[:64]; !bytes.Equal(got, make([]byte, 64)) {
					t.Errorf("the new incarnation's arena reads %x after a copy into the stale Ref", got)
				}
			})
		})
	}
}

// TestOwnerMemoryRightsFenced: the owner checks a Memory object's own
// rights on every use, whatever the holder's entry claims. A holder
// entry conveying Write to a read-only object — installed here through
// the bootstrap hook — copies into it and fails with StatusPerm at the
// owner, and the object's bytes stay as they were.
func TestOwnerMemoryRightsFenced(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		own := proc.Attach(cl, 1, "owner", 4096)
		cli := proc.Attach(cl, 0, "cli", 4096)
		ro, err := own.MemoryCreate(tk, 0, 64, cap.Read|cap.Grant)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := cl.CtrlFor(1).EntryOf(own.ID(), ro.ID())
		e.Rights = cap.MemRights
		cid, ok := cl.CtrlFor(0).GrantEntry(cli.ID(), e)
		if !ok {
			t.Fatal("GrantEntry refused the entry")
		}
		forged := cli.CapFromDelivered(wire.DeliveredCap{Cid: cid, Kind: e.Kind, Rights: e.Rights, Size: e.Size})
		copy(cli.Arena(), bytes.Repeat([]byte{0xab}, 64))
		src, err := cli.MemoryCreate(tk, 0, 64, cap.MemRights)
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.MemoryCopy(tk, src, forged); !wire.IsStatus(err, wire.StatusPerm) {
			t.Errorf("copy into a read-only object: %v, want %v", err, wire.StatusPerm)
		}
		if got := own.Arena()[:64]; !bytes.Equal(got, make([]byte, 64)) {
			t.Errorf("the read-only object reads %x after a copy into it", got)
		}
	})
}

// TestStaleAliasRevokeFenced: a cap_revoke through a Ref from before its
// owner's reboot fails stale-epoch at the owner (revokeLocal's epoch
// check), though the Ref's object slot now holds the new incarnation's
// Request; that Request stays live and its provider can still invoke it.
func TestStaleAliasRevokeFenced(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		var own proc.Cap
		cli, stale, fresh := staleAlias(t, tk, cl, func(p *proc.Process) (proc.Cap, error) {
			c, err := p.RequestCreate(tk, 99, nil, nil)
			own = c
			return c, err
		})
		if cli == nil {
			return
		}
		delivered := 0
		fresh.Handle(func(d *proc.Delivery) {
			delivered++
			d.Done()
			d.Finish()
		})
		if err := cli.Revoke(tk, stale); !wire.IsStatus(err, wire.StatusStale) {
			t.Errorf("revoke through the stale Ref: %v, want stale-epoch", err)
		}
		if err := fresh.Invoke(tk, own, nil, nil); err != nil {
			t.Errorf("the new incarnation's Request after the stale revoke: %v", err)
		}
		tk.Sleep(100 * 1000)
		if delivered != 1 {
			t.Errorf("the new incarnation's Request got %d deliveries, want 1", delivered)
		}
	})
}

// staleDelegation delivers a Ref from before its owner's reboot to a
// holder that could not have got it before: a Request of a Process on
// node 1 is granted to a forwarder on node 2; node 2 is cut off while
// node 1's Controller crashes and reboots, so only node 2 misses the
// new epoch; then a Process attached afterwards on holderNode receives
// the stale Ref as an argument of an invocation from the forwarder. It
// returns the holder and its stale capability, or a nil holder if
// set-up failed.
func staleDelegation(t *testing.T, tk *sim.Task, cl *core.Cluster, holderNode int) (*proc.Process, proc.Cap) {
	cl.Net.InstallFaults(fabric.Faults{})
	old := proc.Attach(cl, 1, "old", 0)
	fwd := proc.Attach(cl, 2, "fwd", 0)
	req, err := old.RequestCreate(tk, 99, nil, nil)
	var stale proc.Cap
	if err == nil {
		stale, err = proc.GrantCap(old, req, fwd)
	}
	if err != nil {
		t.Error(err)
		return nil, proc.Cap{}
	}
	cl.Net.PartitionNodes([]int{2})
	cl.CtrlFor(1).Crash()
	cl.CtrlFor(1).Reboot() // its CtrlEpoch reaches node 0 and is lost to node 2
	tk.Sleep(100 * 1000)
	cl.Net.HealPartitions()

	holder := proc.Attach(cl, holderNode, "holder", 0)
	var got proc.Cap
	holder.Handle(func(d *proc.Delivery) {
		got, _ = d.Cap(0)
		d.Done()
		d.Finish()
	})
	in, err := holder.RequestCreate(tk, 7, nil, nil)
	if err == nil {
		in, err = proc.GrantCap(holder, in, fwd)
	}
	if err == nil {
		err = fwd.Invoke(tk, in, nil, []proc.Arg{{Slot: 0, Cap: stale}})
	}
	tk.Sleep(100 * 1000)
	if err != nil || got == (proc.Cap{}) {
		t.Errorf("delegating the stale Ref to node %d: %v, delivered %v", holderNode, err, got)
		return nil, proc.Cap{}
	}
	return holder, got
}

// TestStaleDelegationRefusedAtHolder: a pre-reboot Ref that reaches a
// holder after the holder's Controller learned its owner's new epoch is
// refused there, without asking the owner: stale-epoch, counted in
// StaleRejected, and not one frame crosses the switch. On node 0
// resolveEntry's peer-epoch check refuses it; on node 1, the rebooted
// owner's own node, its own-epoch check.
func TestStaleDelegationRefusedAtHolder(t *testing.T) {
	for _, tc := range []struct {
		name string
		node int
	}{{"peer-epoch", 0}, {"own-epoch", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, testbed.Spec{Nodes: 3}, func(tk *sim.Task, cl *core.Cluster) {
				holder, stale := staleDelegation(t, tk, cl, tc.node)
				if holder == nil {
					return
				}
				ctrl := cl.CtrlFor(tc.node)
				rejected, net := ctrl.Metrics().StaleRejected, cl.Net.Stats()
				if err := holder.Invoke(tk, stale, nil, nil); !wire.IsStatus(err, wire.StatusStale) {
					t.Errorf("invoke through the delegated stale Ref: %v, want stale-epoch", err)
				}
				if n := ctrl.Metrics().StaleRejected - rejected; n != 1 {
					t.Errorf("StaleRejected moved by %d, want 1", n)
				}
				if n := cl.Net.Stats().Sub(net).CrossNodeMsgs; n != 0 {
					t.Errorf("%d frames crossed the switch for a use the holder must refuse", n)
				}
			})
		})
	}
}

// TestStaleMonitorDelegateAnswersStale: monitor_delegate through a Ref
// of the holder's own Controller from before its reboot fails
// stale-epoch, the owner's verdict, as every other use of that Ref
// does, not revoked.
func TestStaleMonitorDelegateAnswersStale(t *testing.T) {
	run(t, testbed.Spec{Nodes: 3}, func(tk *sim.Task, cl *core.Cluster) {
		holder, stale := staleDelegation(t, tk, cl, 1)
		if holder == nil {
			return
		}
		if err := holder.MonitorDelegate(tk, stale, func() {}); !wire.IsStatus(err, wire.StatusStale) {
			t.Errorf("monitor_delegate through the stale Ref: %v, want stale-epoch", err)
		}
	})
}

// TestRepeatedEpochAbortsNothing: an announcement of an epoch a peer
// already knows — the heartbeat detector re-announces on every
// suspicion cycle, and the fabric may deliver one late — aborts no call
// pending to that Controller (peerEpoch acts only on a newer epoch).
func TestRepeatedEpochAbortsNothing(t *testing.T) {
	run(t, testbed.Spec{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
		cl.CtrlFor(1).Crash()
		cl.CtrlFor(1).Reboot()
		tk.Sleep(100 * 1000)
		srv := proc.Attach(cl, 1, "srv", 0)
		cli := proc.Attach(cl, 0, "cli", 0)
		srv.Serve("srv", 1, func(st *sim.Task, d *proc.Delivery) {
			st.Sleep(100 * 1000)
			if err := d.Reply(0, nil, nil); err != nil {
				t.Error(err)
			}
		})
		req, err := srv.RequestCreate(tk, 1, nil, nil)
		if err == nil {
			req, err = proc.GrantCap(srv, req, cli)
		}
		if err != nil {
			t.Fatal(err)
		}
		cl.K.Spawn("re-announce", func(at *sim.Task) {
			at.Sleep(50 * 1000) // the Call is waiting for its reply
			cl.CtrlFor(1).AnnounceEpoch()
		})
		if _, err := cli.Call(tk, req, nil, nil, 0); err != nil {
			t.Errorf("Call across a repeated epoch announcement: %v", err)
		}
		if n := cl.CtrlFor(0).Metrics().RPCAborted; n != 0 {
			t.Errorf("%d calls aborted by the repeated announcement", n)
		}
	})
}
