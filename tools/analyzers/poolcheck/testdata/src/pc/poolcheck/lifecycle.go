package poolcheck

// ---- violations ----

func leak() {
	b := Get() // want `pooled b \(pool buf\) acquired here may not be released`
	_ = b.n
}

func leakOnBranch() {
	b := Get() // want `may not be released`
	if cond() {
		b.Put()
	}
}

func double() {
	b := Get()
	b.Put()
	b.Put() // want `released again here`
}

func useAfterRelease() {
	b := Get()
	b.Put()
	_ = b.n // want `use of pooled b \(pool buf\) after it was released`
}

func useAfterHandoff() {
	b := Get()
	hand(b)
	_ = b.n // want `after it was released`
}

func useBorrowAfterRelease() byte {
	b := Get()
	p := b.bytes()
	b.Put()
	return p[0] // want `use of pooled b \(pool buf\) after it was released`
}

func valueCopyIsSafe() int {
	b := Get()
	n := b.n
	b.Put()
	return n + 1 // ok: n is an int copy, not a borrow of pooled storage
}

func releaseInLoop() {
	b := Get()
	for i := 0; i < 3; i++ { // want `released inside this loop`
		b.Put()
	}
}

func discarded() {
	Get() // want `result of Get \(pool buf\) is discarded`
}

func unbound() {
	_ = Get() // want `result of Get \(pool buf\) is not bound to a variable`
}

func retention() {
	b := Get()
	sink = b // want `stored outside the local frame`
	b.Put()
}

type q struct{ items []*Buf }

func (s *q) park() {
	b := Get()
	s.items = append(s.items, b) // want `stored outside the local frame`
	b.Put()
}

func capture() {
	b := Get()
	run(func() { b.Put() }) // want `captured by a function literal`
}

func deferDouble() {
	b := Get() // want `released more than once`
	defer b.Put()
	b.Put()
}

func returnAfterRelease() *Buf {
	b := Get()
	b.Put()
	return b // want `returned after it may already have been released`
}

func returnDeferred() *Buf {
	b := Get()
	defer b.Put()
	return b // want `returned while a deferred call releases it`
}

func escape() {
	b := Get()
	go peek(b) // want `escapes into a goroutine`
	b.Put()
}

func send(ch chan *Buf) {
	b := Get()
	ch <- b // want `sent on a channel`
}

func deferCapture() {
	b := Get()
	defer func() { peek(b) }() // want `captured by deferred closure that does not release it`
	b.Put()
}

func deferUse() {
	b := Get()
	defer peek(b) // want `used in defer without releasing`
	b.Put()
}

func selectLeak(ch chan int) {
	b := Get() // want `may not be released on the path where scope ends`
	select {
	case <-ch:
		b.Put()
	case ch <- 1:
	}
}

// ---- clean ----

func cleanStraight() {
	b := Get()
	b.n++
	b.Put()
}

func branchesClean() {
	b := Get()
	if cond() {
		b.Put()
	} else {
		hand(b)
	}
}

func deferClean() {
	b := Get()
	defer b.Put()
	b.n++
}

func transfer() *Buf {
	b := Get()
	return b
}

func handoffClean() {
	b := Get()
	hand(b)
}

func cleanLoopLocal() {
	for i := 0; i < 3; i++ {
		b := Get()
		b.n += i
		b.Put()
	}
}

func switchClean() {
	b := Get()
	switch {
	case cond():
		b.Put()
	default:
		hand(b)
	}
}

func selectClean(ch chan int) {
	b := Get()
	select {
	case <-ch:
		b.Put()
	default:
		hand(b)
	}
}

func reacquireClean() {
	b := Get()
	b.Put()
	b = Get()
	b.Put()
}

func deferClosureClean() {
	b := Get()
	defer func() { b.Put() }()
	b.n++
}

// ---- waived ----

func waivedLeak() {
	b := Get() // fractos:pool-ok ownership parks in the registry; the runner releases it
	_ = b.n
}

func (s *q) parkWaived() {
	b := Get()
	s.items = append(s.items, b) // fractos:pool-ok the waker unlinks the waiter before reuse
	b.Put()
}
