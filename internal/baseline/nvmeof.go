package baseline

import (
	"fmt"

	"fractos/internal/core"
	"fractos/internal/device/nvme"
	"fractos/internal/fabric"
	"fractos/internal/fs"
	"fractos/internal/sim"
)

// NVMe-oF protocol kinds.
const (
	nvmeofRead uint32 = 0x100 + iota
	nvmeofWrite
	nvmeofAlloc
)

// nvmeofPerOp is the in-kernel NVMe-oF target/initiator processing
// cost per operation per side: the protocol is hardware-accelerated
// and lean (§6.4 finds the FractOS FS "competitive with existing
// hardware-accelerated NVMe-oF").
const nvmeofPerOp = 4 * sim.Time(1000)

// NVMeoFTarget exports an NVMe device over the fabric at block level,
// like the in-kernel Linux NVMe-oF target the paper's baseline uses.
type NVMeoFTarget struct {
	peer *Peer
	dev  *nvme.Device
	free int64
}

// NewNVMeoFTarget attaches a target co-located with its device.
func NewNVMeoFTarget(net *fabric.Net, node int, dev *nvme.Device) *NVMeoFTarget {
	tg := &NVMeoFTarget{dev: dev}
	tg.peer = NewPeer(net, fmt.Sprintf("nvmeof-target.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}, nvmeofPerOp, tg.serve)
	return tg
}

// Endpoint returns the target's fabric address.
func (tg *NVMeoFTarget) Endpoint() fabric.EndpointID { return tg.peer.EP.ID }

// serve answers an allocation at once, a read or a write once the device
// has served it.
func (tg *NVMeoFTarget) serve(req Request) error {
	switch req.Kind {
	case nvmeofAlloc:
		size := int64(getU64(req.Data, 0))
		off := tg.free
		if size <= 0 || size > tg.dev.Capacity()-off {
			return ErrPeer
		}
		tg.free += size
		tg.peer.Reply(header([]uint64{0, uint64(off)}, nil), false)
		return nil
	case nvmeofRead:
		// The reply's buffer exists before the device checks the range,
		// so the largest I/O bounds what a read can make the host allocate.
		off, n := int64(getU64(req.Data, 0)), getU64(req.Data, 8)
		if n > nvme.MaxIO {
			return ErrPeer
		}
		reply := make([]byte, 8+n) // status 0, then the bytes
		return tg.access(off, reply[8:], false, reply)
	case nvmeofWrite:
		return tg.access(int64(getU64(req.Data, 0)), tail(req.Data, 8), true, header([]uint64{0}, nil))
	}
	return ErrPeer
}

// access books a device access and replies with reply once its time is
// over: a read's reply carries the bytes.
func (tg *NVMeoFTarget) access(off int64, buf []byte, write bool, reply []byte) error {
	lat, err := tg.dev.Book(off, len(buf), write)
	if err != nil {
		return err
	}
	tg.peer.net.Kernel().After(lat, func() {
		tg.dev.Deliver(off, buf, write)
		tg.peer.Reply(reply, !write)
	})
	return nil
}

// NVMeoFInitiator is the host-side driver: block reads/writes over the
// fabric, with the Linux block cache in front (read-ahead for
// sequential reads, write-back absorption — the behaviour that makes
// the Disaggregated Baseline's writes fast in Figure 10). It runs in
// kernel context: an operation takes the initiator's processing time,
// then, unless the cache serves it, a round trip, and ends by running
// its continuation.
type NVMeoFInitiator struct {
	client
	k       *sim.Kernel
	cache   *blockCache
	allocs  []allocRange
	lastEnd int64 // end of the previous read, for read-ahead detection
}

type allocRange struct{ off, size int64 }

// BlockCacheSize is the initiator's block cache, the FS node's page
// cache.
const BlockCacheSize = 64 << 20

// NewNVMeoFInitiator attaches an initiator on a node, with a block cache
// of BlockCacheSize.
func NewNVMeoFInitiator(net *fabric.Net, node int, target *NVMeoFTarget) *NVMeoFInitiator {
	ini := &NVMeoFInitiator{k: net.Kernel(), client: client{
		peer:    NewPeer(net, fmt.Sprintf("nvmeof-ini.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}, 0, nil),
		server:  target.Endpoint(),
		proto:   "nvmeof",
		perCall: nvmeofPerOp,
	}}
	ini.SetCacheSize(BlockCacheSize)
	return ini
}

// Alloc reserves a device range (the baseline's volume management) and
// passes then its offset.
func (ini *NVMeoFInitiator) Alloc(size int64, then func(off int64, err error)) {
	ini.k.After(ini.perCall, func() {
		ini.callThen(nvmeofAlloc, header([]uint64{uint64(size)}, nil), false, 2, func(r []byte, err error) {
			if err != nil {
				then(0, err)
				return
			}
			off := int64(getU64(r, 8))
			ini.allocs = append(ini.allocs, allocRange{off: off, size: size})
			then(off, nil)
		})
	})
}

// SetCacheSize resizes and empties the block cache; 0 disables it.
// SetCacheSize(BlockCacheSize) drops the caches (benchmark hygiene, like
// /proc/sys/vm/drop_caches between seeding and measurement), so a drop
// comes before any other resize: after one, it would restore the
// default size.
func (ini *NVMeoFInitiator) SetCacheSize(bytes int64) {
	if bytes <= 0 {
		ini.cache = nil
		return
	}
	ini.cache = newBlockCache(bytes)
}

// clampFetch bounds read-ahead to the allocation containing off so the
// initiator never fetches unrelated device space.
func (ini *NVMeoFInitiator) clampFetch(off int64, want int) int {
	for _, a := range ini.allocs {
		if off >= a.off && off < a.off+a.size {
			if max := int(a.off + a.size - off); want > max {
				return max
			}
			return want
		}
	}
	return want
}

// Read passes then n bytes of the remote device at off, in a buffer
// then owns.
func (ini *NVMeoFInitiator) Read(off int64, n int, then func([]byte, error)) {
	ini.k.After(ini.perCall, func() {
		if ini.cache != nil && ini.cache.holds(off, n) {
			ini.lastEnd = off + int64(n)
			then(ini.cache.read(off, n), nil)
			return
		}
		// Like the Linux page cache, a read that continues a sequential
		// stream prefetches the window after it; random reads fetch
		// exactly what was asked.
		sequential := ini.cache != nil && off == ini.lastEnd
		ini.lastEnd = off + int64(n)
		ini.callThen(nvmeofRead, header([]uint64{uint64(off), uint64(n)}, nil), false, 1, func(r []byte, err error) {
			if err != nil {
				then(nil, err)
				return
			}
			if ini.cache != nil {
				ini.cache.fill(off, r[8:])
				if sequential {
					ini.readAhead(off + int64(n))
				}
			}
			then(r[8:], nil)
		})
	})
}

// readAhead fetches the window at off into the cache unless its first
// page is there already. The reply fills the cache when it lands, so the
// stream's next reads hit the cache without paying the fetch's latency.
func (ini *NVMeoFInitiator) readAhead(off int64) {
	n := ini.clampFetch(off, readAhead)
	if n <= 0 || ini.cache.holds(off, min(n, cachePage)) {
		return
	}
	ini.callThen(nvmeofRead, header([]uint64{uint64(off), uint64(n)}, nil), false, 1, func(r []byte, err error) {
		if err == nil && ini.cache != nil {
			ini.cache.fill(off, r[8:])
		}
	})
}

// Write stores buf at off and runs then. It copies buf before it
// returns, so buf may be a ranged view of the caller's memory. With the
// block cache, the write is absorbed locally and written back
// asynchronously: then does not wait for the write-back.
func (ini *NVMeoFInitiator) Write(off int64, buf []byte, then func(error)) {
	data := header([]uint64{uint64(off)}, buf)
	ini.k.After(ini.perCall, func() {
		if ini.cache == nil {
			ini.callThen(nvmeofWrite, data, true, 1, func(_ []byte, err error) { then(err) })
			return
		}
		ini.cache.fill(off, data[8:])
		ini.callThen(nvmeofWrite, data, true, 1, func([]byte, error) {})
		then(nil)
	})
}

const readAhead = 256 << 10

// blockCache is a byte-granular FIFO cache standing in for the Linux
// page cache. Eviction is oldest-insertion-first: picking a victim by
// ranging over the page map would make the whole simulation depend on
// Go's randomized map iteration order — the one source of
// run-to-run nondeterminism the testbed layer's determinism contract
// forbids (it showed up as a flapping Figure 11 Disagg cell).
type blockCache struct {
	max   int64
	used  int64
	pages map[int64][]byte // 4 KiB pages
	fifo  []int64          // page insertion order (deterministic eviction)
}

func newBlockCache(max int64) *blockCache {
	return &blockCache{max: max, pages: make(map[int64][]byte)}
}

const cachePage = 4096

// holds reports whether the n bytes at off are all resident.
func (c *blockCache) holds(off int64, n int) bool {
	for p := off / cachePage; p <= (off+int64(n)-1)/cachePage; p++ {
		if _, ok := c.pages[p]; !ok {
			return false
		}
	}
	return true
}

// read returns the n resident bytes at off.
func (c *blockCache) read(off int64, n int) []byte {
	buf := make([]byte, n)
	for i := 0; i < n; {
		p := (off + int64(i)) / cachePage
		po := int((off + int64(i)) % cachePage)
		cn := min(cachePage-po, n-i)
		copy(buf[i:i+cn], c.pages[p][po:po+cn])
		i += cn
	}
	return buf
}

// fill installs data into the cache, evicting oldest-first at
// capacity.
func (c *blockCache) fill(off int64, data []byte) {
	for n := 0; n < len(data); {
		p := (off + int64(n)) / cachePage
		po := int((off + int64(n)) % cachePage)
		cn := min(cachePage-po, len(data)-n)
		pg, ok := c.pages[p]
		if !ok {
			if c.used+cachePage > c.max && len(c.fifo) > 0 {
				// Shift in place: re-slicing fifo[1:] would drift through
				// the backing array and reallocate it on later appends.
				victim := c.fifo[0]
				c.fifo = c.fifo[:copy(c.fifo, c.fifo[1:])]
				delete(c.pages, victim)
				c.used -= cachePage
			}
			pg = make([]byte, cachePage)
			c.pages[p] = pg
			c.fifo = append(c.fifo, p)
			c.used += cachePage
		}
		copy(pg[po:po+cn], data[n:n+cn])
		n += cn
	}
}

// --- fs.Backend: the Disaggregated Baseline of §6.4 ---

// CreateVolume implements fs.Backend, plugging the initiator underneath
// the FractOS FS service ("the same FractOS FS service with a remote
// NVMe-oF device"): a volume is a device range.
func (ini *NVMeoFInitiator) CreateVolume(t *sim.Task, size uint64) (fs.Volume, error) {
	f := sim.NewFuture[int64]()
	ini.Alloc(int64(size), func(off int64, err error) { settle(f, off, err) })
	off, err := f.Wait(t)
	if err != nil {
		return nil, err
	}
	return &nvmeofVolume{ini: ini, off: off}, nil
}

// nvmeofVolume is a device range; the FS keeps every access inside it.
type nvmeofVolume struct {
	ini *NVMeoFInitiator
	off int64
}

func (v *nvmeofVolume) ReadAt(off, n uint64, stage nvme.Stage, w fs.Waiter) {
	v.ini.Read(v.off+int64(off), int(n), func(got []byte, err error) {
		if err == nil {
			copy(stage.View(n), got) // the view is taken once the bytes are in
		}
		w.Done(err)
	})
}

func (v *nvmeofVolume) WriteAt(off, n uint64, stage nvme.Stage, w fs.Waiter) {
	v.ini.Write(v.off+int64(off), stage.View(n), w.Done)
}

var _ fs.Backend = (*NVMeoFInitiator)(nil)

// NewDisaggregatedBackend assembles the Disaggregated Baseline in one
// call: NVMe-oF target on storageNode, initiator (with block cache) on
// the FS node.
func NewDisaggregatedBackend(cl *core.Cluster, fsNode, storageNode int, dev *nvme.Device) *NVMeoFInitiator {
	return NewNVMeoFInitiator(cl.Net, fsNode, NewNVMeoFTarget(cl.Net, storageNode, dev))
}
