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

// TestStaleAliasInvokeFenced: invoking a Request through a Ref from
// before its owner's reboot fails stale-epoch, though the Ref's object
// slot now holds the new incarnation's Request; nothing is delivered
// to that one.
func TestStaleAliasInvokeFenced(t *testing.T) {
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
		if err := cli.Invoke(tk, stale, nil, nil); !wire.IsStatus(err, wire.StatusStale) {
			t.Errorf("invoke through the stale Ref: %v, want stale-epoch", err)
		}
		tk.Sleep(100 * 1000)
		if delivered != 0 {
			t.Errorf("the new incarnation's Request got %d deliveries meant for the old one", delivered)
		}
	})
}

// TestStaleAliasCopyFenced: a memory_copy into a Memory Ref from before
// its owner's reboot fails stale-epoch, though the Ref's object slot now
// holds the new incarnation's Memory; no byte reaches the new arena.
func TestStaleAliasCopyFenced(t *testing.T) {
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
		if err := cli.MemoryCopy(tk, src, stale); !wire.IsStatus(err, wire.StatusStale) {
			t.Errorf("copy into the stale Ref: %v, want stale-epoch", err)
		}
		if got := fresh.Arena()[:64]; !bytes.Equal(got, make([]byte, 64)) {
			t.Errorf("the new incarnation's arena reads %x after a copy into the stale Ref", got)
		}
	})
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
