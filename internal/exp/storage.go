package exp

import (
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/core"
	"fractos/internal/device/nvme"
	"fractos/internal/fs"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// Storage experiment topology: client on node 0, FS service on node 1,
// NVMe on node 2 — stacks.Storage's default placement (the FS's
// backend device is remote either way).

// storFileBytes is the benchmark file: 8 extents of 1 MiB.
const storFileBytes = uint64(fs.MaxExtents) * fs.ExtentSize

// randOffsets returns k distinct size-aligned offsets, each within one
// extent (no extent crossing), sampled deterministically.
func randOffsets(k int, size uint64, seed int64) []uint64 {
	rng := testbed.Rand(seed)
	perExt := fs.ExtentSize / size
	var offs []uint64
	seen := map[uint64]bool{}
	for len(offs) < k {
		e := uint64(rng.Intn(fs.MaxExtents))
		s := uint64(rng.Int63n(int64(perExt)))
		off := e*fs.ExtentSize + s*size
		if !seen[off] {
			seen[off] = true
			offs = append(offs, off)
		}
	}
	return offs
}

// storOp is the operation a storage latency run repeats.
type storOp int

const (
	randRead storOp = iota
	randWrite
	seqRead
	directRead // DirectReadAt: the FS composes the device's reply to the client
)

// storLatency measures the mean latency of one client's back-to-back
// ops on the three-node storage stack: 6 at random offsets, or 8
// consecutive blocks for seqRead.
func storLatency(p core.Placement, kind stacks.StorageKind, op storOp, size uint64) sim.Time {
	var avg sim.Time
	stor := &stacks.Storage{Kind: kind, ForWrite: op == randWrite}
	spec := testbed.Spec{Nodes: 3, Placement: p, Services: []testbed.Service{stor}}
	testbed.Run(spec, func(tk *sim.Task, d *testbed.Deployment) {
		mem := stor.Buf(tk, size)
		k := 6
		if op == seqRead {
			k = 8
		}
		offs := randOffsets(k, size, 77)
		st := load.Closed{Clients: 1, PerClient: k}.Run(tk, func(t *sim.Task, _, seq int) error {
			switch op {
			case randWrite:
				return stor.File.WriteAt(t, offs[seq], size, mem)
			case seqRead:
				return stor.File.ReadAt(t, uint64(seq)*size, size, mem)
			case directRead:
				return stor.File.DirectReadAt(t, offs[seq], size, mem)
			}
			return stor.File.ReadAt(t, offs[seq], size, mem)
		})
		if st.Errors > 0 {
			assert.Failf("exp/storage: %d of %d ops failed", st.Errors, k)
		}
		avg = st.Elapsed() / sim.Time(k)
	})
	return avg
}

// localLatency is Figure 10's Local Baseline: the device accessed
// directly on its own node.
func localLatency(size uint64, isWrite bool) sim.Time {
	var avg sim.Time
	testbed.Run(testbed.Spec{Nodes: 1}, func(tk *sim.Task, d *testbed.Deployment) {
		dev := nvme.NewDevice(d.K(), nvme.DefaultCapacity)
		buf := make([]byte, size)
		const k = 6
		offs := randOffsets(k, size, 77)
		start := tk.Now()
		for _, off := range offs {
			lat, err := dev.Book(int64(off), len(buf), isWrite)
			if err != nil {
				assert.NoErr(err, "exp/storage")
			}
			tk.Sleep(lat)
			dev.Deliver(int64(off), buf, isWrite)
		}
		avg = (tk.Now() - start) / k
	})
	return avg
}

// Figure10 regenerates the storage latency comparison.
//
// Paper shape: FS competitive with the Disaggregated Baseline for
// random reads; baseline writes faster (its block cache absorbs them;
// the FractOS FS has no cache); DAX beats both, 1.1x at 4 KiB (device
// dominated) growing to ~1.3x at large sizes (network dominated).
func Figure10() *Table {
	t := NewTable("fig10", "Random storage latency (µs)",
		"op", "size", "FS", "DAX", "Disagg baseline", "Local")
	for _, isWrite := range []bool{false, true} {
		op, name := randRead, "read"
		if isWrite {
			op, name = randWrite, "write"
		}
		for _, size := range []uint64{4 << 10, 64 << 10, 256 << 10, 1 << 20} {
			fsLat := storLatency(core.CtrlOnCPU, stacks.StorFS, op, size)
			dax := storLatency(core.CtrlOnCPU, stacks.StorDAX, op, size)
			dis := storLatency(core.CtrlOnCPU, stacks.StorDisagg, op, size)
			loc := localLatency(size, isWrite)
			t.AddRow(name, testbed.SizeLabel(int(size)), testbed.Us(fsLat), testbed.Us(dax), testbed.Us(dis), testbed.Us(loc))
			if !isWrite {
				t.Metric(fmt.Sprintf("read%s-dax-speedup", testbed.SizeLabel(int(size))),
					float64(fsLat)/float64(dax))
			}
			if !isWrite && size == 4<<10 {
				t.Metric("read4k-fs-us", float64(fsLat)/1e3)
				t.Metric("read4k-dax-us", float64(dax)/1e3)
			}
		}
	}
	t.Note("paper: DAX read speedup 1.1x at 4K → ~1.3x at large sizes; baseline writes absorbed by its cache")
	// The sNIC deployment rows: §6.4 notes the system overheads grow
	// when Controllers run on the BlueField's slow ARM cores.
	for _, size := range []uint64{4 << 10, 256 << 10} {
		fsLat := storLatency(core.CtrlOnSNIC, stacks.StorFS, randRead, size)
		dax := storLatency(core.CtrlOnSNIC, stacks.StorDAX, randRead, size)
		t.AddRow("read@sNIC", testbed.SizeLabel(int(size)), testbed.Us(fsLat), testbed.Us(dax), "-", "-")
		if size == 4<<10 {
			t.Metric("read4k-fs-snic-us", float64(fsLat)/1e3)
		}
	}
	t.Note("read@sNIC: FractOS Controllers on SmartNICs (higher overall latency, as in the paper)")
	// Sequential reads: §6.4 notes DAX latency is then equivalent to
	// the Disaggregated Baseline, whose read-ahead caching becomes
	// effective.
	for _, size := range []uint64{64 << 10} {
		dax := storLatency(core.CtrlOnCPU, stacks.StorDAX, seqRead, size)
		dis := storLatency(core.CtrlOnCPU, stacks.StorDisagg, seqRead, size)
		t.AddRow("seqread", testbed.SizeLabel(int(size)), "-", testbed.Us(dax), testbed.Us(dis), "-")
		t.Metric("seq64k-dax-us", float64(dax)/1e3)
		t.Metric("seq64k-disagg-us", float64(dis)/1e3)
	}
	t.Note("seqread: sequential pattern — the baseline's read-ahead narrows its random-read gap;")
	t.Note("the paper reports full equality (its streaming reader gives the prefetcher more headroom)")
	return t
}

// storThroughput measures aggregate read bandwidth with 1 MiB blocks
// and `inflight` concurrent readers (Figure 11).
func storThroughput(kind stacks.StorageKind, sequential bool, inflight int) float64 {
	const size = uint64(1 << 20)
	const opsPerWorker = 8
	var tput float64
	stor := &stacks.Storage{Kind: kind}
	testbed.Run(testbed.Spec{Nodes: 3, Services: []testbed.Service{stor}},
		func(tk *sim.Task, d *testbed.Deployment) {
			// Shrink the baseline's cache below the working set (the
			// paper's dataset exceeds the FS-node cache, making it
			// ineffective for random reads).
			if kind == stacks.StorDisagg && stor.SetCacheSize != nil {
				stor.SetCacheSize(2 << 20)
			}
			// Per-worker state, initialized lazily inside each worker's
			// first request (buffer registration is part of the run, as
			// it was when each worker allocated before its loop).
			mems := make([]proc.Cap, inflight)
			offs := make([][]uint64, inflight)
			st := load.Closed{Clients: inflight, PerClient: opsPerWorker}.Run(tk,
				func(wt *sim.Task, w, seq int) error {
					if seq == 0 {
						mems[w] = stor.Alloc(wt, size)
						offs[w] = randOffsets(opsPerWorker, size, int64(100+w))
					}
					off := offs[w][seq]
					if sequential {
						off = (uint64(w*opsPerWorker+seq) * size) % storFileBytes
					}
					return stor.File.ReadAt(wt, off, size, mems[w])
				})
			if st.Errors > 0 {
				assert.Failf("exp/storage: %d throughput reads failed", st.Errors)
			}
			tput = testbed.MbpsVal(inflight*opsPerWorker*int(size), st.Elapsed())
		})
	return tput
}

// Figure11 regenerates the storage throughput comparison (1 MiB
// blocks, 4 requests in flight).
//
// Paper: DAX saturates the 10 Gbps line rate (~1250 MB/s); the FS path
// and the Disaggregated Baseline deliver roughly 20% less.
func Figure11() *Table {
	t := NewTable("fig11", "Storage read throughput, 1 MiB blocks, 4 in flight (MB/s)",
		"pattern", "FS", "DAX", "Disagg baseline")
	for _, seq := range []bool{false, true} {
		pat := "random"
		if seq {
			pat = "sequential"
		}
		fsT := storThroughput(stacks.StorFS, seq, 4)
		daxT := storThroughput(stacks.StorDAX, seq, 4)
		disT := storThroughput(stacks.StorDisagg, seq, 4)
		t.AddRow(pat, fmt.Sprintf("%.0f", fsT), fmt.Sprintf("%.0f", daxT), fmt.Sprintf("%.0f", disT))
		if !seq {
			t.Metric("rand-dax-mbps", daxT)
			t.Metric("rand-fs-mbps", fsT)
			t.Metric("rand-disagg-mbps", disT)
		}
	}
	t.Note("line rate is 1250 MB/s; paper: DAX saturates it, FS and baseline ~20%% lower")
	return t
}
