// Package load provides the deterministic workload drivers and the
// streaming latency histogram used by the evaluation harness: a
// closed-loop driver (N clients, think-time-free), an open-loop driver
// (Poisson arrivals off a seeded source — "heavy traffic from millions
// of users" is open-loop, not closed-loop), and a log-bucket histogram
// with zero allocations on the record path, honoring the pooling
// discipline of docs/PERFORMANCE.md.
package load

import (
	"math"
	"math/bits"

	"fractos/internal/sim"
)

// Histogram-bucket geometry: log-linear (HDR-style) buckets. Values
// below 2^subBits land in exact unit buckets; above that, each octave
// is split into 2^subBits linear sub-buckets, so any recorded value
// v is reported as a bucket upper bound est with
//
//	v <= est <= v * (1 + 1/2^subBits) = v * 33/32
//
// i.e. quantiles carry at most ~3.1% relative error, at ~7.4 KiB per
// histogram and no allocation or search on Record.
const (
	subBits  = 5
	subCount = 1 << subBits // 32
	// numBuckets covers every non-negative int64 duration:
	// bits.Len64 <= 63 for positive int64, so the maximum index is
	// ((63-subBits)<<subBits) + 63 - subCount = 1887.
	numBuckets = ((63-subBits)<<subBits + subCount) // 1888
)

// Hist is a streaming log-bucket latency histogram. The zero value is
// ready to use; Record performs no allocations.
type Hist struct {
	counts [numBuckets]uint32
	count  uint64
	sum    sim.Time
	min    sim.Time
	max    sim.Time
}

// bucketOf maps a non-negative duration to its bucket index.
func bucketOf(v sim.Time) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	l := bits.Len64(u)
	return ((l - subBits) << subBits) + int(u>>uint(l-1-subBits)) - subCount
}

// bucketUpper returns the largest duration mapping to bucket idx (the
// value Quantile reports).
func bucketUpper(idx int) sim.Time {
	if idx < subCount {
		return sim.Time(idx)
	}
	l := (idx >> subBits) + subBits // bits.Len64 of the bucket's values
	m := uint64(idx&(subCount-1)) + subCount
	return sim.Time((m+1)<<uint(l-subBits-1) - 1)
}

// Record adds one latency sample. Negative durations are clamped to
// zero. Zero allocations.
func (h *Hist) Record(v sim.Time) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Quantile returns the q-quantile (q in [0,1]) as a bucket upper
// bound: for the sample x at rank ceil(q*count), the result est
// satisfies x <= est <= x*33/32. Quantile(0) returns the exact
// minimum; Quantile(1) the bucket bound of the maximum.
func (h *Hist) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += uint64(h.counts[i])
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(numBuckets - 1)
}

// P50, P90, P99, P999 are the quantiles the evaluation reports.
func (h *Hist) P50() sim.Time  { return h.Quantile(0.50) }
func (h *Hist) P90() sim.Time  { return h.Quantile(0.90) }
func (h *Hist) P99() sim.Time  { return h.Quantile(0.99) }
func (h *Hist) P999() sim.Time { return h.Quantile(0.999) }
