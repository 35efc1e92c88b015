// Package staging is an application path, which keeps its memory at
// hand: the whole-arena rule does not apply.
package staging

import "fractos/internal/proc"

func fill(p *proc.Process, b []byte) { copy(p.Arena(), b) }
