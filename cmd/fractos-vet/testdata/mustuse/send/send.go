// Package send drops the result of the real fabric.Net.Send, so a
// declaration that loses its //fractos:mustuse marker fails
// TestSendcheck, not only a broken analyzer.
package send

import "fractos/internal/fabric"

// net embeds *fabric.Net so method-set resolution (not syntax) is
// exercised.
type net struct{ *fabric.Net }

func sends(n *fabric.Net, w net, a, b fabric.EndpointID) {
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
