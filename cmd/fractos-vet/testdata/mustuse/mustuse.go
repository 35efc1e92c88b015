// Package mustuse exercises the mustuse analyzer on any result of a
// marked type: the real wire.Status. Its subpackages send and registry
// drop a marked function's last result (fabric.Net.Send,
// services.Client.Register and Deregister). A declaration that loses
// its //fractos:mustuse marker fails TestMustuse, TestSendcheck or
// TestRegcheck, not only a broken analyzer.
package mustuse

import "fractos/internal/wire"

type process struct{ id uint32 }

// Controller mimics the status-returning surface of internal/core.
type Controller struct{}

func (c *Controller) resolve(id uint64) (*process, wire.Status) { return nil, wire.StatusOK }

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
