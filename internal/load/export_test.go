package load

import "fractos/internal/sim"

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Mean returns the exact arithmetic mean of the recorded samples.
func (h *Hist) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Min and Max return the exact extremes.
func (h *Hist) Min() sim.Time { return h.min }
func (h *Hist) Max() sim.Time { return h.max }
