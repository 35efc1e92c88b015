package nvme

import (
	"math/bits"

	"fractos/internal/cap"
	"fractos/internal/proc"
	"fractos/internal/sim"
)

// Stages is a block I/O service's staging buffers: equal buffers back to
// back at the start of its Process's memory, each covered by a Memory
// capability, each moving the bytes of one operation at a time (the
// adaptor's reads and writes, the FS's FS-mode I/O). Take hands
// out the lowest free buffer, so buffer i materializes only once i+1
// operations hold one at the same time; an operation that finds none
// free waits, and returned buffers go to the waiting operations in
// arrival order.
type Stages struct {
	bufs    []Stage
	free    uint64        // bit i set: bufs[i] is free
	waiting []StageWaiter // oldest first
}

// Stage is one staging buffer: its Memory capability and where it lies
// in its Process's memory.
type Stage struct {
	Cap proc.Cap
	p   *proc.Process
	i   int
	off int
}

// View returns the buffer's first n bytes, a ranged view of the
// Process's memory (proc.Process.ArenaRange): take it at the instant the
// bytes are used, and never hold it across an event.
func (s Stage) View(n uint64) []byte { return s.p.ArenaRange(s.off, int(n)) }

// StageWaiter is an operation that asked for a staging buffer: Staged
// hands it one, in kernel context.
type StageWaiter interface{ Staged(s Stage) }

// NewStages registers n staging buffers of size bytes each, at most 64,
// at the start of p's memory.
func NewStages(t *sim.Task, p *proc.Process, n, size int) (*Stages, error) {
	s := &Stages{free: 1<<n - 1}
	for i := range n {
		c, err := p.MemoryCreate(t, uint64(i*size), uint64(size), cap.MemRights)
		if err != nil {
			return nil, err
		}
		s.bufs = append(s.bufs, Stage{Cap: c, p: p, i: i, off: i * size})
	}
	return s, nil
}

// Take hands w the lowest free buffer now or, with none free, once one
// is put back and the operations that asked before w have theirs.
func (s *Stages) Take(w StageWaiter) {
	if s.free == 0 {
		s.waiting = append(s.waiting, w)
		return
	}
	i := bits.TrailingZeros64(s.free)
	s.free &^= 1 << i
	w.Staged(s.bufs[i])
}

// Put gives a buffer back: to the first operation waiting, if any.
func (s *Stages) Put(b Stage) {
	if len(s.waiting) == 0 {
		s.free |= 1 << b.i
		return
	}
	w := s.waiting[0]
	s.waiting = s.waiting[:copy(s.waiting, s.waiting[1:])]
	w.Staged(b)
}
