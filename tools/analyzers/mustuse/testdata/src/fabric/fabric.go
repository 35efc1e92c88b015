// Package fabric mirrors the repo's Net.Send surface for the mustuse
// testdata.
package fabric

// EndpointID identifies an attached endpoint.
type EndpointID uint32

// Net is the simulated fabric.
type Net struct{}

// Send mirrors the real signature: false iff the destination is gone.
//
//fractos:mustuse false means the destination endpoint is gone
func (n *Net) Send(from, to EndpointID, msg interface{}) bool { return true }

// Broadcast returns a count, not a delivery boolean: not marked.
func (n *Net) Broadcast(from EndpointID, msg interface{}) int { return 0 }
