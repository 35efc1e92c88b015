package exp

import (
	"fractos/internal/core"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// AblationDirectComposition compares the three storage interfaces the
// FractOS mechanisms enable, for random reads:
//
//   - FS: fully mediated (two data transfers per read);
//   - Direct: per-request dynamic composition — the FS refines its
//     block Request with the client's buffer and continuation, the
//     block device answers the client (one transfer, FS still on the
//     per-request control path);
//   - DAX: standing leases — the FS is contacted only at open (one
//     transfer, no per-request FS involvement).
//
// This isolates how much of DAX's win comes from the data path versus
// the control path.
func AblationDirectComposition() *Table {
	t := NewTable("abl-direct", "Storage interface ablation: random read latency (µs)",
		"size", "FS (mediated)", "Direct (composed)", "DAX (leases)")
	for _, size := range []uint64{4 << 10, 64 << 10, 256 << 10} {
		fsLat := storLatency(core.CtrlOnCPU, stacks.StorFS, randRead, size)
		direct := storLatency(core.CtrlOnCPU, stacks.StorFS, directRead, size)
		dax := storLatency(core.CtrlOnCPU, stacks.StorDAX, randRead, size)
		t.AddRow(testbed.SizeLabel(int(size)), testbed.Us(fsLat), testbed.Us(direct), testbed.Us(dax))
		if size == 64<<10 {
			t.Metric("fs-us", float64(fsLat)/1e3)
			t.Metric("direct-us", float64(direct)/1e3)
			t.Metric("dax-us", float64(dax)/1e3)
		}
	}
	t.Note("Direct removes the data staging; DAX additionally removes the FS from per-request control")
	return t
}
