// Package staging is a device path: it may take ranged views of its
// arena but never materialize the whole of it.
package staging

import (
	"fractos/internal/fabric"
	"fractos/internal/proc"
)

func stage(p *proc.Process, ep *fabric.Endpoint, off, n int) {
	copy(p.ArenaRange(off, n), ep.ArenaRange(off, n))
	copy(p.Arena()[off:off+n], "x")  // want `Arena materializes the whole registered arena on a device path`
	copy(ep.Arena()[off:off+n], "x") // want `Arena materializes the whole registered arena on a device path`
}
