// Package directives exercises the driver's directive check: the suite
// reads the ordered directive and the panic-ok waiver, and nothing
// reads hotpaht or aloc-ok.
package directives

//fractos:ordered
func known() {}

//fractos:hotpaht // want "fractos:hotpaht is read by no analyzer"
func misspeltDirective() {}

func misspeltWaiver() []int {
	return make([]int, 1) // fractos:aloc-ok cold path // want "aloc-ok is read by no analyzer"
}

func waived() {
	panic("unreachable") // fractos:panic-ok a waiver the suite reads
}

// Prose that mentions //fractos:hotpaht mid-sentence is not a
// directive, and neither is a directive quoted in a string.
func prose() string { return "//fractos:hotpaht" }
