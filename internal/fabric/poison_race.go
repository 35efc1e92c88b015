//go:build race

package fabric

// poisonFrame fills a released frame's whole buffer with 0xDB: a
// receiver that kept bytes it had borrowed from the frame (a decoded
// payload aliases it) reads garbage from then on instead of a
// plausible stale message. Race builds only, so `make race` runs the
// whole suite against it.
func poisonFrame(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}
