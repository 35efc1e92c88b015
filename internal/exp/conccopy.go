package exp

import (
	"fmt"

	"fractos/internal/assert"
	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/load"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

// AblationConcurrentCopies reproduces §6.1's aside: "Concurrent copies
// quickly saturate throughput at 4 KB and 32 KB for CPU and sNIC
// Controllers, respectively" — small transfers that individually
// under-utilize the line rate saturate it in aggregate once enough are
// in flight, because the per-copy cost is Controller processing, which
// pipelines across the bounce-buffer pool.
func AblationConcurrentCopies() *Table {
	t := NewTable("abl-conc-copy", "Aggregate memory_copy throughput vs concurrency (MB/s)",
		"inflight", "4K @CPU", "32K @CPU", "4K @sNIC", "32K @sNIC")
	measure := func(p core.Placement, size, inflight int) float64 {
		const perWorker = 16
		var elapsed sim.Time
		testbed.Run(testbed.Spec{Nodes: 2, Placement: p}, func(tk *sim.Task, d *testbed.Deployment) {
			src := d.Attach(0, "src", inflight*size)
			dst := d.Attach(1, "dst", inflight*size)
			// Each copier creates and grants its buffer pair in its
			// first request.
			srcs := make([]proc.Cap, inflight)
			dsts := make([]proc.Cap, inflight)
			st := load.Closed{Clients: inflight, PerClient: perWorker}.Run(tk,
				func(wt *sim.Task, w, seq int) error {
					if seq == 0 {
						s, err := src.MemoryCreate(wt, uint64(w*size), uint64(size), cap.MemRights)
						if err != nil {
							assert.NoErr(err, "exp/conccopy")
						}
						dd, err := dst.MemoryCreate(wt, uint64(w*size), uint64(size), cap.MemRights)
						if err != nil {
							assert.NoErr(err, "exp/conccopy")
						}
						if dsts[w], err = proc.GrantCap(dst, dd, src); err != nil {
							assert.NoErr(err, "exp/conccopy")
						}
						srcs[w] = s
					}
					if err := src.MemoryCopy(wt, srcs[w], dsts[w]); err != nil {
						assert.NoErr(err, "exp/conccopy")
					}
					return nil
				})
			elapsed = st.Elapsed()
		})
		return testbed.MbpsVal(inflight*perWorker*size, elapsed)
	}
	for _, inflight := range []int{1, 2, 4, 8, 16} {
		c4 := measure(core.CtrlOnCPU, 4<<10, inflight)
		c32 := measure(core.CtrlOnCPU, 32<<10, inflight)
		s4 := measure(core.CtrlOnSNIC, 4<<10, inflight)
		s32 := measure(core.CtrlOnSNIC, 32<<10, inflight)
		t.AddRow(fmt.Sprint(inflight),
			fmt.Sprintf("%.0f", c4), fmt.Sprintf("%.0f", c32),
			fmt.Sprintf("%.0f", s4), fmt.Sprintf("%.0f", s32))
		if inflight == 16 {
			t.Metric("cpu4k-16", c4)
			t.Metric("snic32k-16", s32)
		}
		if inflight == 1 {
			t.Metric("cpu4k-1", c4)
		}
	}
	t.Note("paper (§6.1): concurrent copies saturate throughput at 4 KB (CPU) / 32 KB (sNIC)")
	return t
}
