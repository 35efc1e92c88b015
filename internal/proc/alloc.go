package proc

import (
	"errors"
	"sort"
)

// ErrNoSpace is returned when the arena cannot satisfy an allocation.
var ErrNoSpace = errors.New("proc: arena exhausted")

// allocator is a first-fit free-list allocator over the Process arena.
// FractOS itself has no allocation layer — Processes own their arenas —
// so this is purely a client-side convenience.
type allocator struct {
	spans []span // sorted by offset, coalesced
	sizes map[int]int
	hwm   int // end of the highest region ever handed out
}

type span struct{ off, len int }

func newAllocator(size int) *allocator {
	a := &allocator{sizes: make(map[int]int)}
	if size > 0 {
		a.spans = []span{{0, size}}
	}
	return a
}

// alloc reserves size bytes, returning the offset.
func (a *allocator) alloc(size int) (int, error) {
	if size <= 0 {
		return 0, errors.New("proc: allocation size must be positive")
	}
	for i, s := range a.spans {
		if s.len < size {
			continue
		}
		off := s.off
		if s.len == size {
			a.spans = append(a.spans[:i], a.spans[i+1:]...)
		} else {
			a.spans[i] = span{s.off + size, s.len - size}
		}
		a.sizes[off] = size
		a.hwm = max(a.hwm, off+size)
		return off, nil
	}
	return 0, ErrNoSpace
}

// free releases a previously allocated region and coalesces neighbors.
func (a *allocator) free(off int) {
	size, ok := a.sizes[off]
	if !ok {
		return
	}
	delete(a.sizes, off)
	a.spans = append(a.spans, span{off, size})
	sort.Slice(a.spans, func(i, j int) bool { return a.spans[i].off < a.spans[j].off })
	out := a.spans[:0]
	for _, s := range a.spans {
		if n := len(out); n > 0 && out[n-1].off+out[n-1].len == s.off {
			out[n-1].len += s.len
		} else {
			out = append(out, s)
		}
	}
	a.spans = out
}

// Alloc reserves a region of the Process arena.
func (p *Process) Alloc(size int) (int, error) { return p.alloc.alloc(size) }

// Free releases a region previously returned by Alloc.
func (p *Process) Free(off int) { p.alloc.free(off) }

// Allocated returns the end of the highest region Alloc has ever handed
// out: every byte the Process's allocations can reach lies below it.
func (p *Process) Allocated() int { return p.alloc.hwm }
