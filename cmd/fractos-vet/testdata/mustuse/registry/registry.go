// Package registry drops the errors of the real services.Client's
// Register and Deregister, so either declaration losing its
// //fractos:mustuse marker fails TestRegcheck, not only a broken
// analyzer.
package registry

import (
	"fractos/internal/proc"
	"fractos/internal/services"
	"fractos/internal/sim"
)

// registered embeds *services.Client so method-set resolution (not
// syntax) is exercised.
type registered struct{ *services.Client }

func registry(t *sim.Task, c *services.Client, w registered, cp proc.Cap) {
	c.Deregister(t, "svc", 1)          // want `error result of Client.Deregister is dropped; an unchecked Deregister leaks registry membership`
	_ = c.Deregister(t, "svc", 1)      // want `error result of Client.Deregister is dropped`
	go c.Deregister(t, "svc", 1)       // want `error result of Client.Deregister is dropped`
	defer c.Deregister(t, "svc", 1)    // want `error result of Client.Deregister is dropped`
	w.Deregister(t, "svc", 1)          // want `error result of Client.Deregister is dropped`
	c.Register(t, "svc", cp, 0)        // want `error result of Client.Register is dropped; an unchecked Register leaves a replica serving unregistered`
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
