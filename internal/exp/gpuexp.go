package exp

import (
	"fmt"

	"fractos/internal/app/faceverify"
	"fractos/internal/assert"
	"fractos/internal/baseline"
	"fractos/internal/core"
	"fractos/internal/device/gpu"
	"fractos/internal/load"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// gpuBatches are the batch sizes swept in Figure 9 (left).
var gpuBatches = []int{1, 16, 64, 256, 1024}

// The FractOS GPU service under test is stacks.GPU: adaptor on node 1,
// client on node 0, one buffer set per in-flight slot.

// rcudaService is the same workload over rCUDA: a testbed.Service
// that deploys the rCUDA server on node 1 and its client on node 0,
// with one device buffer set per in-flight slot.
type rcudaService struct {
	batch, inflight int

	cli   *baseline.RCUDAClient
	slots []baseSlots
	free  *sim.Semaphore
	img   []byte
	probe []byte
}

type baseSlots struct{ imgAddr, probeAddr, outAddr uint64 }

// Deploy implements testbed.Service.
func (r *rcudaService) Deploy(tk *sim.Task, d *testbed.Deployment) {
	dev := gpu.NewDevice(d.K(), gpu.DefaultMemSize)
	faceverify.RegisterKernel(dev)
	srv := baseline.NewRCUDAServer(d.Net(), 1, dev)
	r.cli = baseline.NewRCUDAClient(d.Net(), 0, srv)
	r.free = sim.NewSemaphore(r.inflight)
	r.img = make([]byte, r.batch*faceverify.ImgSize)
	r.probe = make([]byte, r.batch*faceverify.ProbeSize)
	for i := 0; i < r.inflight; i++ {
		var s baseSlots
		var err error
		if s.imgAddr, err = r.cli.Malloc(tk, len(r.img)); err != nil {
			assert.NoErr(err, "exp/gpuexp")
		}
		if s.probeAddr, err = r.cli.Malloc(tk, len(r.probe)); err != nil {
			assert.NoErr(err, "exp/gpuexp")
		}
		if s.outAddr, err = r.cli.Malloc(tk, r.batch); err != nil {
			assert.NoErr(err, "exp/gpuexp")
		}
		r.slots = append(r.slots, s)
	}
}

// OneRequest uploads the batch and probes, launches the kernel and
// reads the verdicts back, one rCUDA call each.
func (r *rcudaService) OneRequest(tk *sim.Task) {
	r.free.Acquire(tk)
	s := r.slots[len(r.slots)-1]
	r.slots = r.slots[:len(r.slots)-1]
	defer func() {
		r.slots = append(r.slots, s)
		r.free.Release()
	}()
	if err := r.cli.MemcpyH2D(tk, s.imgAddr, r.img); err != nil {
		assert.NoErr(err, "exp/gpuexp")
	}
	if err := r.cli.MemcpyH2D(tk, s.probeAddr, r.probe); err != nil {
		assert.NoErr(err, "exp/gpuexp")
	}
	if err := r.cli.Launch(tk, faceverify.KernelName, s.imgAddr, s.probeAddr, s.outAddr, uint64(r.batch)); err != nil {
		assert.NoErr(err, "exp/gpuexp")
	}
	if _, err := r.cli.MemcpyD2H(tk, s.outAddr, r.batch); err != nil {
		assert.NoErr(err, "exp/gpuexp")
	}
}

// localGPUTime is the no-network reference: host-GPU DMA plus kernel
// execution on a local device.
func localGPUTime(batch int) sim.Time {
	var lat sim.Time
	testbed.Run(testbed.Spec{Nodes: 1}, func(tk *sim.Task, d *testbed.Deployment) {
		dev := gpu.NewDevice(d.K(), gpu.DefaultMemSize)
		faceverify.RegisterKernel(dev)
		mem := make([]byte, batch*(faceverify.ImgSize+faceverify.ProbeSize)+batch)
		bytes := batch * (faceverify.ImgSize + faceverify.ProbeSize)
		start := tk.Now()
		tk.Sleep(sim.Time(float64(bytes) / 6e9 * 1e9)) // PCIe upload
		args := []uint64{0, uint64(batch * faceverify.ImgSize),
			uint64(batch * (faceverify.ImgSize + faceverify.ProbeSize)), uint64(batch)}
		if _, err := dev.Exec(tk, faceverify.KernelName, mem, args); err != nil {
			assert.NoErr(err, "exp/gpuexp")
		}
		lat = tk.Now() - start
	})
	return lat
}

// Figure9 regenerates the GPU service comparison.
func Figure9() *Table {
	t := NewTable("fig9", "GPU service: kernel-execution latency (ms) and throughput (req/s)",
		"batch", "FractOS@CPU", "(xfer/kernel/ovh)", "FractOS@sNIC", "rCUDA", "local GPU")
	measureFr := func(p core.Placement, batch int) (lat, xfer, kern sim.Time) {
		g := &stacks.GPU{Batch: batch, Slots: 1}
		testbed.Run(testbed.Spec{Nodes: 2, Placement: p, Services: []testbed.Service{g}},
			func(tk *sim.Task, d *testbed.Deployment) {
				lat, xfer, kern = g.OneRequestTimed(tk)
			})
		return
	}
	measureRC := func(batch int) sim.Time {
		var lat sim.Time
		r := &rcudaService{batch: batch, inflight: 1}
		testbed.Run(testbed.Spec{Nodes: 2, Services: []testbed.Service{r}}, func(tk *sim.Task, d *testbed.Deployment) {
			start := tk.Now()
			r.OneRequest(tk)
			lat = tk.Now() - start
		})
		return lat
	}
	for _, batch := range gpuBatches {
		fc, xfer, kern := measureFr(core.CtrlOnCPU, batch)
		fsn, _, _ := measureFr(core.CtrlOnSNIC, batch)
		rc := measureRC(batch)
		lg := localGPUTime(batch)
		ovh := fc - xfer - kern
		t.AddRow(fmt.Sprint(batch), testbed.Ms(fc),
			fmt.Sprintf("%s/%s/%s", testbed.Ms(xfer), testbed.Ms(kern), testbed.Ms(ovh)),
			testbed.Ms(fsn), testbed.Ms(rc), testbed.Ms(lg))
		if batch == 64 {
			t.Metric("lat64-fractos-ms", float64(fc)/1e6)
			t.Metric("lat64-rcuda-ms", float64(rc)/1e6)
			t.Metric("lat64-rcuda-over-fractos", float64(rc)/float64(fc))
			t.Metric("lat64-overhead-ms", float64(ovh)/1e6)
		}
	}
	t.Note("xfer/kernel/ovh = data transfers, kernel execution, FractOS request handling (the paper's breakdown)")

	// Throughput: fixed batch 1024 (paper, right panel), closed-loop
	// in-flight sweep driven by the load layer.
	const tputBatch = 1024
	const reqsPerWorker = 4
	tput := func(s interface {
		testbed.Service
		OneRequest(tk *sim.Task)
	}, inflight int) float64 {
		var tput float64
		testbed.Run(testbed.Spec{Nodes: 2, Services: []testbed.Service{s}},
			func(tk *sim.Task, d *testbed.Deployment) {
				st := load.Closed{Clients: inflight, PerClient: reqsPerWorker}.Run(tk,
					func(wt *sim.Task, _, _ int) error {
						s.OneRequest(wt)
						return nil
					})
				tput = st.Throughput()
			})
		return tput
	}
	localIdeal := 1e9 / (float64(gpu.LaunchOverhead) + float64(tputBatch)*float64(faceverify.KernelPerImage))
	t.AddRow("", "", "", "", "", "")
	t.AddRow("inflight", "FractOS req/s", "", "", "rCUDA req/s", "ideal GPU req/s")
	for _, inflight := range []int{1, 2, 4, 8} {
		ft := tput(&stacks.GPU{Batch: tputBatch, Slots: inflight}, inflight)
		rt := tput(&rcudaService{batch: tputBatch, inflight: inflight}, inflight)
		t.AddRow(fmt.Sprint(inflight), fmt.Sprintf("%.0f", ft), "", "", fmt.Sprintf("%.0f", rt),
			fmt.Sprintf("%.0f", localIdeal))
		if inflight == 4 {
			t.Metric("tput4-fractos", ft)
			t.Metric("tput4-rcuda", rt)
			t.Metric("tput4-ideal", localIdeal)
		}
	}
	t.Note("paper: FractOS reaches near-optimal throughput with >1 in-flight request; rCUDA lags")
	return t
}
