// Package panicfree exercises the panicfree analyzer.
package panicfree

type killSignal struct{}

func direct() {
	panic("boom") // want `panic tears down the whole simulated data center`
}

func valued(err error) {
	if err != nil {
		panic(err) // want `panic tears down the whole simulated data center`
	}
}

func waived(r interface{}) {
	//fractos:panic-ok re-panic after recover: not ours to swallow
	panic(r)
}

func waivedSameLine() {
	panic(killSignal{}) //fractos:panic-ok cooperative-kill unwinding
}

// panic as an identifier (not the builtin) is fine.
func shadowed() {
	panic := func(v interface{}) {}
	panic("not the builtin")
}

// recover is unrelated and fine.
func recovers() {
	defer func() {
		_ = recover()
	}()
}
