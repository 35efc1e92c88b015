package baseline

import (
	"fmt"

	"fractos/internal/core"
	"fractos/internal/device/nvme"
	"fractos/internal/fabric"
	"fractos/internal/fs"
	"fractos/internal/sim"
	"fractos/internal/wire"
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
func NewNVMeoFTarget(k *sim.Kernel, net *fabric.Net, node int, dev *nvme.Device) *NVMeoFTarget {
	tg := &NVMeoFTarget{
		peer: NewPeer(k, net, fmt.Sprintf("nvmeof-target.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}),
		dev:  dev,
	}
	k.Spawn("nvmeof-target", tg.serve)
	return tg
}

// Endpoint returns the target's fabric address.
func (tg *NVMeoFTarget) Endpoint() fabric.EndpointID { return tg.peer.EP.ID }

func (tg *NVMeoFTarget) serve(t *sim.Task) {
	for {
		req, ok := tg.peer.Serve(t)
		if !ok {
			return
		}
		t.Sleep(nvmeofPerOp)
		switch req.Kind {
		case nvmeofAlloc:
			size := int64(getU64(req.Data, 0))
			off := tg.free
			if size <= 0 || size > tg.dev.Capacity()-off {
				tg.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			tg.free += size
			tg.peer.Reply(t, req, header([]uint64{0, uint64(off)}, nil), false)
		case nvmeofRead:
			off, n := int64(getU64(req.Data, 0)), int64(getU64(req.Data, 8))
			if !wire.Within(uint64(off), uint64(n), uint64(tg.dev.Capacity())) {
				tg.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			buf := make([]byte, n)
			if err := tg.dev.Read(t, off, buf); err != nil {
				tg.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			tg.peer.Reply(t, req, header([]uint64{0}, buf), true)
		case nvmeofWrite:
			off := int64(getU64(req.Data, 0))
			if err := tg.dev.Write(t, off, tail(req.Data, 8)); err != nil {
				tg.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			tg.peer.Reply(t, req, header([]uint64{0}, nil), false)
		}
	}
}

// NVMeoFInitiator is the host-side driver: block reads/writes over the
// fabric, with the Linux block cache in front (read-ahead for
// sequential reads, write-back absorption — the behaviour that makes
// the Disaggregated Baseline's writes fast in Figure 10).
type NVMeoFInitiator struct {
	peer   *Peer
	target fabric.EndpointID

	cache   *blockCache
	allocs  []allocRange
	lastEnd int64 // end of the previous read, for read-ahead detection
}

type allocRange struct{ off, size int64 }

// NewNVMeoFInitiator attaches an initiator on a node.
func NewNVMeoFInitiator(k *sim.Kernel, net *fabric.Net, node int, target *NVMeoFTarget, withCache bool) *NVMeoFInitiator {
	ini := &NVMeoFInitiator{
		peer:   NewPeer(k, net, fmt.Sprintf("nvmeof-ini.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}),
		target: target.Endpoint(),
	}
	if withCache {
		ini.cache = newBlockCache(64 << 20)
	}
	return ini
}

// Alloc reserves a device range (the baseline's volume management).
func (ini *NVMeoFInitiator) Alloc(t *sim.Task, size int64) (int64, error) {
	t.Sleep(nvmeofPerOp)
	r, err := ini.peer.Call(t, ini.target, nvmeofAlloc, header([]uint64{uint64(size)}, nil), false)
	if err != nil {
		return 0, err
	}
	if getU64(r.Data, 0) != 0 {
		return 0, fmt.Errorf("nvmeof: alloc failed")
	}
	off := int64(getU64(r.Data, 8))
	ini.allocs = append(ini.allocs, allocRange{off: off, size: size})
	return off, nil
}

// DropCaches empties the block cache (benchmark hygiene, like
// /proc/sys/vm/drop_caches between seeding and measurement).
func (ini *NVMeoFInitiator) DropCaches() {
	if ini.cache != nil {
		ini.cache = newBlockCache(ini.cache.max)
	}
}

// SetCacheSize resizes (and empties) the block cache; 0 disables it.
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

// Read fills buf from the remote device at off.
func (ini *NVMeoFInitiator) Read(t *sim.Task, off int64, buf []byte) error {
	t.Sleep(nvmeofPerOp)
	if ini.cache != nil && ini.cache.read(off, buf) {
		ini.lastEnd = off + int64(len(buf))
		return nil
	}
	// Read-ahead: like the Linux page cache, prefetch when the access
	// continues a sequential stream — asynchronously, so the stream's
	// next reads hit the cache without paying the prefetch latency.
	// Random reads fetch exactly what was asked.
	sequential := ini.cache != nil && off == ini.lastEnd
	ini.lastEnd = off + int64(len(buf))
	r, err := ini.peer.Call(t, ini.target, nvmeofRead,
		header([]uint64{uint64(off), uint64(len(buf))}, nil), false)
	if err != nil {
		return err
	}
	if getU64(r.Data, 0) != 0 {
		return fmt.Errorf("nvmeof: read failed")
	}
	got := r.Data[8:]
	copy(buf, got)
	if ini.cache != nil {
		ini.cache.fill(off, got)
	}
	if sequential {
		raOff := off + int64(len(buf))
		raLen := ini.clampFetch(raOff, readAhead)
		if raLen > 0 && !ini.cache.read(raOff, make([]byte, min(raLen, cachePage))) {
			f := ini.peer.CallAsync(ini.target, nvmeofRead,
				header([]uint64{uint64(raOff), uint64(raLen)}, nil), false)
			ini.prefetch(raOff, f)
		}
	}
	return nil
}

// prefetch installs an asynchronous read-ahead reply into the cache.
func (ini *NVMeoFInitiator) prefetch(off int64, f *sim.Future[*wire.Raw]) {
	ini.peer.net.Kernel().Spawn("nvmeof-readahead", func(t *sim.Task) {
		r, err := f.Wait(t)
		if err != nil || getU64(r.Data, 0) != 0 || ini.cache == nil {
			return
		}
		ini.cache.fill(off, r.Data[8:])
	})
}

// Write stores buf at off. With the block cache, the write is absorbed
// locally and written back asynchronously.
func (ini *NVMeoFInitiator) Write(t *sim.Task, off int64, buf []byte) error {
	t.Sleep(nvmeofPerOp)
	if ini.cache != nil {
		ini.cache.fill(off, buf)
		// Write-back: the transfer happens off the latency path.
		data := header([]uint64{uint64(off)}, buf)
		ini.peer.CallAsync(ini.target, nvmeofWrite, data, true)
		return nil
	}
	r, err := ini.peer.Call(t, ini.target, nvmeofWrite, header([]uint64{uint64(off)}, buf), true)
	if err != nil {
		return err
	}
	if getU64(r.Data, 0) != 0 {
		return fmt.Errorf("nvmeof: write failed")
	}
	return nil
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

// read fills buf if the whole range is resident.
func (c *blockCache) read(off int64, buf []byte) bool {
	// First check residency.
	for p := off / cachePage; p <= (off+int64(len(buf))-1)/cachePage; p++ {
		if _, ok := c.pages[p]; !ok {
			return false
		}
	}
	for n := 0; n < len(buf); {
		p := (off + int64(n)) / cachePage
		po := int((off + int64(n)) % cachePage)
		cn := cachePage - po
		if cn > len(buf)-n {
			cn = len(buf) - n
		}
		copy(buf[n:n+cn], c.pages[p][po:po+cn])
		n += cn
	}
	return true
}

// fill installs data into the cache, evicting oldest-first at
// capacity.
func (c *blockCache) fill(off int64, data []byte) {
	for n := 0; n < len(data); {
		p := (off + int64(n)) / cachePage
		po := int((off + int64(n)) % cachePage)
		cn := cachePage - po
		if cn > len(data)-n {
			cn = len(data) - n
		}
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

// --- fs.Backend implementation: the Disaggregated Baseline of §6.4 ---

// NVMeoFBackend plugs the NVMe-oF initiator underneath the FractOS FS
// service ("the same FractOS FS service with a remote NVMe-oF
// device").
type NVMeoFBackend struct {
	ini *NVMeoFInitiator
}

// NewNVMeoFBackend wraps an initiator as an fs.Backend.
func NewNVMeoFBackend(ini *NVMeoFInitiator) *NVMeoFBackend {
	return &NVMeoFBackend{ini: ini}
}

// Initiator exposes the backend's initiator (cache control in
// benchmarks).
func (b *NVMeoFBackend) Initiator() *NVMeoFInitiator { return b.ini }

// CreateVolume allocates a device range.
func (b *NVMeoFBackend) CreateVolume(t *sim.Task, size uint64) (fs.Volume, error) {
	off, err := b.ini.Alloc(t, int64(size))
	if err != nil {
		return nil, err
	}
	return &nvmeofVolume{ini: b.ini, off: off, size: int64(size)}, nil
}

type nvmeofVolume struct {
	ini  *NVMeoFInitiator
	off  int64
	size int64
}

func (v *nvmeofVolume) ReadAt(t *sim.Task, off, n uint64, stage fs.Stage) uint64 {
	if int64(off+n) > v.size {
		return 2 // fs.StatusBounds
	}
	if err := v.ini.Read(t, v.off+int64(off), stage.Buf[:n]); err != nil {
		return 3 // fs.StatusIOErr
	}
	return 0
}

func (v *nvmeofVolume) WriteAt(t *sim.Task, off, n uint64, stage fs.Stage) uint64 {
	if int64(off+n) > v.size {
		return 2
	}
	if err := v.ini.Write(t, v.off+int64(off), stage.Buf[:n]); err != nil {
		return 3
	}
	return 0
}

var _ fs.Backend = (*NVMeoFBackend)(nil)

// NewDisaggregatedBackend assembles the Disaggregated Baseline in one
// call: NVMe-oF target on storageNode, initiator (with block cache) on
// the FS node.
func NewDisaggregatedBackend(cl *core.Cluster, fsNode, storageNode int, dev *nvme.Device) *NVMeoFBackend {
	tg := NewNVMeoFTarget(cl.K, cl.Net, storageNode, dev)
	ini := NewNVMeoFInitiator(cl.K, cl.Net, fsNode, tg, true)
	return NewNVMeoFBackend(ini)
}
