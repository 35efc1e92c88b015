//go:build race

package panicfree

// raced is in a race-tagged file, which the normal build, and so the
// analyzers, leave out: the panic below is no finding.
func raced() {
	panic("race build only")
}
