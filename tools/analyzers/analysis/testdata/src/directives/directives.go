// Package directives exercises the driver's directive check against a
// suite that reads the hotpath directive and the alloc-ok waiver.
package directives

//fractos:hotpath
func known() {}

//fractos:hotpaht // want "fractos:hotpaht is read by no analyzer"
func misspeltDirective() {}

func misspeltWaiver() []int {
	return make([]int, 1) // fractos:aloc-ok cold path // want "aloc-ok is read by no analyzer"
}

func waived() []int {
	return make([]int, 1) // fractos:alloc-ok cold path
}

// Prose that mentions //fractos:hotpaht mid-sentence is not a
// directive, and neither is a directive quoted in a string.
func prose() string { return "//fractos:hotpaht" }
