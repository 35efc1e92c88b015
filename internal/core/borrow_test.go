package core

import (
	"reflect"
	"testing"

	fcap "fractos/internal/cap"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// TestForwardedCallKeepsItsArguments pins the one place a Controller
// holds syscall arguments past the handler that decoded them: an
// invocation forwarded to the Request's owner is rebuilt from its
// pending-call record on every resend, long after the syscall's frame
// went back to the fabric and the Decoder moved on. The first copy of
// the forwarded call is lost; before its timeout fires the Controller
// serves a second invocation with different arguments of the same shape
// (so a record that merely aliased the borrowed message would now read
// the newcomer's bytes) and a run of null syscalls through the recycled
// frames. The resend must carry the first call's arguments, bit for bit.
func TestForwardedCallKeepsItsArguments(t *testing.T) {
	const owner = fcap.ControllerID(2)
	k := sim.New(1)
	net := fabric.New(k, fabric.DefaultProfile())
	net.InstallFaults(fabric.Faults{})
	loc := fabric.Location{Node: 0, Domain: fabric.Host}
	c := New(k, net, 1, Config{Loc: loc})
	peer := net.Attach("owner", fabric.Location{Node: 1, Domain: fabric.Host}, 0)
	c.AddPeer(owner, peer.ID)
	cli := c.AttachProcess(1, "cli", loc, 0, nil)
	grant := func(obj fcap.ObjectID, kind fcap.Kind, rights fcap.Rights) fcap.CapID {
		cid, ok := c.GrantEntry(1, fcap.Entry{Ref: fcap.Ref{Ctrl: owner, Obj: obj, Epoch: 1}, Kind: kind, Rights: rights, Size: 64})
		if !ok {
			t.Fatal("grant failed")
		}
		return cid
	}
	req := grant(9, fcap.KindRequest, fcap.ReqRights)
	memA, memB := grant(10, fcap.KindMemory, fcap.MemRights), grant(11, fcap.KindMemory, fcap.Read|fcap.Grant)
	syscall := func(m wire.Message) {
		if !net.Send(cli.ID, c.EndpointID(), m) {
			t.Fatal("syscall refused")
		}
	}

	var copies [][]*wire.CtrlInvoke // per forwarded call, every frame the owner saw
	byToken := map[uint64]int{}
	k.Spawn("owner", func(tk *sim.Task) {
		for {
			d, ok := peer.Inbox.Recv(tk)
			if !ok {
				return
			}
			m, isInvoke := d.Msg.(*wire.CtrlInvoke)
			if !isInvoke {
				continue
			}
			i, seen := byToken[m.Token]
			if !seen {
				i = len(copies)
				byToken[m.Token] = i
				copies = append(copies, nil)
			}
			copies[i] = append(copies[i], m)
			if i == 0 && len(copies[0]) == 1 {
				continue // the first call's first frame is "lost"
			}
			if !net.Send(peer.ID, c.EndpointID(), &wire.CtrlAck{Token: m.Token, Status: wire.StatusOK}) {
				t.Error("ack refused")
			}
		}
	})
	k.Spawn("client", func(tk *sim.Task) {
		syscall(&wire.ReqInvoke{Token: 1, Cid: req,
			Imms: []wire.ImmArg{{Offset: 4, Data: []byte("first-call-args")}, {Offset: 32, Data: []byte{1, 2, 3}}},
			Caps: []wire.CapSlot{{Slot: 2, Cid: memA}}})
		tk.Sleep(20 * tus)
		syscall(&wire.ReqInvoke{Token: 2, Cid: req,
			Imms: []wire.ImmArg{{Offset: 8, Data: []byte("other-call-args")}, {Offset: 40, Data: []byte{9, 9, 9}}},
			Caps: []wire.CapSlot{{Slot: 5, Cid: memB}}})
		for i := 0; i < 8; i++ {
			syscall(&wire.Null{Token: uint64(10 + i)})
		}
		tk.Sleep(2 * rtoInitial)
		peer.Inbox.Close()
	})
	k.Run()
	k.Shutdown()

	if len(copies) != 2 || len(copies[0]) != 2 || len(copies[1]) != 1 {
		t.Fatalf("owner saw %d forwarded calls (frames per call: %v), want the first twice and the second once", len(copies), copies)
	}
	first, resent := copies[0][0], copies[0][1]
	wantImms := []wire.ImmArg{{Offset: 4, Data: []byte("first-call-args")}, {Offset: 32, Data: []byte{1, 2, 3}}}
	if !reflect.DeepEqual(first.Imms, wantImms) || len(first.Caps) != 1 || first.Caps[0].Slot != 2 || first.Caps[0].Ref.Obj != 10 {
		t.Fatalf("forwarded call carried %+v %+v", first.Imms, first.Caps)
	}
	if !reflect.DeepEqual(first, resent) {
		t.Errorf("the resend differs from the original:\n sent %+v\nagain %+v", first, resent)
	}
	if n := len(c.pending); n != 0 || c.Metrics().Retransmits != 1 {
		t.Errorf("%d calls pending, %d retransmits; want 0 and 1", n, c.Metrics().Retransmits)
	}
}
