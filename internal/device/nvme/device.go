// Package nvme models an NVMe SSD (the Samsung 970evo Plus of
// Table 2) and implements the FractOS block-device adaptor that
// exposes it as logical-volume read/write Requests (§5).
//
// The device stores real bytes (sparse 4 KiB pages) under a timing
// model: ~70 µs random 4 KiB reads (§6.4), a read-ahead cache that
// makes sequential reads cheap, a DRAM write cache that absorbs writes
// until a dirty limit, and a flash-bandwidth-limited drain.
package nvme

import (
	"errors"
	"time"

	"fractos/internal/sim"
)

const pageSize = 4096

// The timing model of the paper's SSD on its 10 Gbps fabric.
const (
	randomReadLatency = 65 * sim.Time(time.Microsecond) // a read the read-ahead window misses
	cachedReadLatency = 8 * sim.Time(time.Microsecond)  // a read inside it
	writeCacheLatency = 12 * sim.Time(time.Microsecond) // a write, absorbed or not
	readBW            = 3.2e9                           // flash media bandwidth, bytes/s
	writeBW           = 2.2e9
	readAhead         = 1 << 20 // bytes prefetched past a read
	writeCache        = 1 << 28 // DRAM write cache; writes past it throttle to writeBW
)

// DefaultCapacity is the simulated size of every program's SSD, 16 GiB.
const DefaultCapacity = 1 << 34

// Device is one simulated SSD, owned by a single adaptor Process.
type Device struct {
	k          *sim.Kernel
	capacity   int64
	dirtyLimit int64 // writeCache; a test lowers it
	pages      map[int64][]byte

	channel   sim.Time // media-channel busy-until (serializes transfers)
	raStart   int64    // current read-ahead window [raStart, raEnd)
	raEnd     int64
	dirty     int64
	lastDrain sim.Time

	// Counters for tests and the evaluation harness.
	Reads, Writes  int64
	BytesR, BytesW int64
	RAHits, RAMiss int64
}

// ErrOutOfRange is returned for accesses beyond the device capacity.
var ErrOutOfRange = errors.New("nvme: access out of range")

// NewDevice creates an SSD of capacity bytes.
func NewDevice(k *sim.Kernel, capacity int64) *Device {
	return &Device{k: k, capacity: capacity, dirtyLimit: writeCache, pages: make(map[int64][]byte)}
}

// Capacity returns the device size in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// reserve books the media channel for n bytes at bandwidth bw and
// returns the added delay the caller must sleep.
func (d *Device) reserve(n int, bw float64) sim.Time {
	now := d.k.Now()
	start := now
	if d.channel > start {
		start = d.channel
	}
	dur := sim.Time(float64(n) / bw * 1e9)
	d.channel = start + dur
	return d.channel - now
}

// drainDirty credits background cache flushes since the last call.
func (d *Device) drainDirty() {
	now := d.k.Now()
	if d.lastDrain == 0 {
		d.lastDrain = now
	}
	elapsed := now - d.lastDrain
	d.lastDrain = now
	drained := int64(float64(elapsed) / 1e9 * writeBW)
	d.dirty -= drained
	if d.dirty < 0 {
		d.dirty = 0
	}
}

// Book checks an access of n bytes at off and returns how long it
// takes; Deliver moves its bytes once that time is over. In between,
// the block adaptor's I/O records and the NVMe-oF target wait for a
// timer, a local task sleeps. A read moves the read-ahead window past
// itself and reserves the media channel. Writes are absorbed by the DRAM
// cache until its dirty limit, then throttle to flash bandwidth (the
// behaviour that makes the paper's Disaggregated Baseline writes fast in
// Figure 10).
func (d *Device) Book(off int64, n int, write bool) (sim.Time, error) {
	if off < 0 || int64(n) > d.capacity || off > d.capacity-int64(n) {
		return 0, ErrOutOfRange
	}
	if write {
		d.drainDirty()
		lat := writeCacheLatency
		if d.dirty+int64(n) > d.dirtyLimit {
			lat += d.reserve(n, writeBW)
		} else {
			// DRAM absorbs: only a small per-byte cost.
			lat += sim.Time(float64(n) / (8e9) * 1e9)
		}
		d.dirty += int64(n)
		return lat, nil
	}
	lat := randomReadLatency
	if off >= d.raStart && off+int64(n) <= d.raEnd {
		lat = cachedReadLatency
		d.RAHits++
	} else {
		d.RAMiss++
	}
	// Slide the read-ahead window past this access.
	d.raStart = off
	d.raEnd = off + int64(n) + readAhead
	return lat + d.reserve(n, readBW), nil
}

// Deliver moves the bytes of an access booked earlier whose time is
// over, and counts it. Unwritten space reads as zeros.
func (d *Device) Deliver(off int64, buf []byte, write bool) {
	for n := 0; n < len(buf); {
		page, po := (off+int64(n))/pageSize, int((off+int64(n))%pageSize)
		c := min(pageSize-po, len(buf)-n)
		p, ok := d.pages[page]
		switch {
		case write && !ok:
			p = make([]byte, pageSize)
			d.pages[page] = p
			fallthrough
		case write:
			copy(p[po:po+c], buf[n:n+c])
		case ok:
			copy(buf[n:n+c], p[po:po+c])
		default:
			clear(buf[n : n+c])
		}
		n += c
	}
	if write {
		d.Writes++
		d.BytesW += int64(len(buf))
	} else {
		d.Reads++
		d.BytesR += int64(len(buf))
	}
}
