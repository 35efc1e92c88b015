// Package user exercises the mustuse analyzer: a marked function's last
// result (Net.Send, Client.Register/Deregister) and any result of a
// marked type (wire.Status).
package user

import (
	"fabric"
	"services"
	"wire"
)

// wrapped embeds *fabric.Net so method-set resolution (not syntax) is
// exercised.
type wrapped struct{ *fabric.Net }

func sends(n *fabric.Net, w wrapped, a, b fabric.EndpointID) {
	n.Send(a, b, nil)     // want `result of Net.Send is dropped`
	_ = n.Send(a, b, nil) // want `result of Net.Send is dropped`
	go n.Send(a, b, nil)  // want `result of Net.Send is dropped`
	w.Send(a, b, nil)     // want `result of Net.Send is dropped`

	//fractos:mustuse-ok heartbeat probe: a torn-down destination is silence by design
	n.Send(a, b, nil)

	if !n.Send(a, b, nil) {
		return
	}
	ok := n.Send(a, b, nil)
	_ = ok
	n.Broadcast(a, nil) // not marked
}

// registered embeds *services.Client likewise.
type registered struct{ *services.Client }

func registry(t *services.Task, c *services.Client, w registered, cp services.Cap) {
	c.Deregister(t, "svc", 1)          // want `error result of Client.Deregister is dropped`
	_ = c.Deregister(t, "svc", 1)      // want `error result of Client.Deregister is dropped`
	go c.Deregister(t, "svc", 1)       // want `error result of Client.Deregister is dropped`
	defer c.Deregister(t, "svc", 1)    // want `error result of Client.Deregister is dropped`
	w.Deregister(t, "svc", 1)          // want `error result of Client.Deregister is dropped`
	c.Register(t, "svc", cp, 0)        // want `error result of Client.Register is dropped`
	_, _ = c.Register(t, "svc", cp, 0) // want `error result of Client.Register is dropped`

	//fractos:mustuse-ok retire races the fence; UnknownObj is pruned-first and benign
	c.Deregister(t, "svc", 1)

	if err := c.Deregister(t, "svc", 1); err != nil {
		return
	}
	id, err := c.Register(t, "svc", cp, 0)
	_, _ = id, err
	// The id may be blanked as long as the error is kept.
	_, err2 := c.Register(t, "svc", cp, 0)
	_ = err2
	// An unmarked method's error is not this analyzer's business.
	c.Resolve(t, "svc")
}

type proc struct{ id uint32 }

// Controller mimics the status-returning surface of internal/core.
type Controller struct{}

func (c *Controller) resolve(id uint64) (*proc, wire.Status) { return nil, wire.StatusOK }

func (c *Controller) revoke(id uint64) wire.Status { return wire.StatusOK }

func (c *Controller) statuses() {
	c.revoke(1)          // want `wire.Status result of Controller.revoke is dropped; statuses carry`
	_ = c.revoke(2)      // want `wire.Status result of Controller.revoke is dropped`
	_, _ = c.resolve(3)  // want `wire.Status result of Controller.resolve is dropped`
	p, _ := c.resolve(4) // want `wire.Status result of Controller.resolve is dropped`
	_ = p
	_ = wire.Status(5) // a conversion, not a call

	//fractos:mustuse-ok best-effort cleanup; failure is acceptable here
	c.revoke(5)

	if st := c.revoke(6); st != wire.StatusOK {
		return
	}
	if p2, st := c.resolve(7); st == wire.StatusOK {
		_ = p2
	}
	_, st := c.resolve(8) // blanking the other result keeps the status
	_ = st
}
