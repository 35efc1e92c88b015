// Package user drops the result of the real fabric.Net.Send.
package user

import "fractos/internal/fabric"

// wrapped embeds *fabric.Net so method-set resolution (not syntax) is
// exercised.
type wrapped struct{ *fabric.Net }

func drops(n *fabric.Net, w wrapped, a, b fabric.EndpointID) {
	n.Send(a, b, nil)     // want `bool result of Net.Send is dropped; false means the destination endpoint is gone`
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
	_, _ = n.Lookup(a) // not marked
}
