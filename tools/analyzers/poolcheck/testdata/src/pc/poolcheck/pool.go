// Package poolcheck exercises the pool lifecycle analyzer against a
// miniature buffer pool shaped like the fabric's frame free list and the
// sim kernel's event free list.
package poolcheck

type Buf struct {
	n    int
	data []byte
}

// bytes exposes the buffer's backing storage (a borrow).
func (b *Buf) bytes() []byte { return b.data }

var free []*Buf

var sink *Buf

// Get returns an owned buffer from the pool.
//
//fractos:pool-acquire buf
func Get() *Buf {
	if n := len(free); n > 0 {
		b := free[n-1]
		free = free[:n-1]
		return b
	}
	return &Buf{}
}

// Put returns the buffer to the pool.
//
//fractos:pool-release buf
func (b *Buf) Put() {
	free = append(free, b)
}

// hand takes ownership of the buffer (queue push).
//
//fractos:pool-handoff buf
func hand(b *Buf) {
	free = append(free, b)
}

func run(f func()) { f() }

func peek(b *Buf) int { return b.n }

func cond() bool { return len(free) > 0 }
