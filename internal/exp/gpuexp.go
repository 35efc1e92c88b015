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

// rcudaService is the same workload over rCUDA.
type rcudaService struct {
	cli   *baseline.RCUDAClient
	batch int
	slots []baseSlots
	free  *sim.Semaphore
	img   []byte
	probe []byte
}

type baseSlots struct{ imgAddr, probeAddr, outAddr uint64 }

func newRCUDAService(tk *sim.Task, cl *core.Cluster, batch, slots int) *rcudaService {
	dev := gpu.NewDevice(cl.K, gpu.Config{MemSize: 96 << 20, LaunchOverhead: gpu.DefaultConfig().LaunchOverhead})
	faceverify.RegisterKernel(dev)
	srv := baseline.NewRCUDAServer(cl.Net, 1, dev)
	r := &rcudaService{
		cli:   baseline.NewRCUDAClient(cl.Net, 0, srv),
		batch: batch,
		free:  sim.NewSemaphore(slots),
		img:   make([]byte, batch*faceverify.ImgSize),
		probe: make([]byte, batch*faceverify.ProbeSize),
	}
	for i := 0; i < slots; i++ {
		var s baseSlots
		var err error
		if s.imgAddr, err = r.cli.Malloc(tk, len(r.img)); err != nil {
			assert.NoErr(err, "exp/gpuexp")
		}
		if s.probeAddr, err = r.cli.Malloc(tk, len(r.probe)); err != nil {
			assert.NoErr(err, "exp/gpuexp")
		}
		if s.outAddr, err = r.cli.Malloc(tk, batch); err != nil {
			assert.NoErr(err, "exp/gpuexp")
		}
		r.slots = append(r.slots, s)
	}
	return r
}

func (r *rcudaService) oneRequest(tk *sim.Task) {
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
	runOn(core.ClusterConfig{Nodes: 1}, func(tk *sim.Task, cl *core.Cluster) {
		dev := gpu.NewDevice(cl.K, gpu.Config{MemSize: 96 << 20, LaunchOverhead: gpu.DefaultConfig().LaunchOverhead})
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
	ms := func(d sim.Time) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }
	measureFr := func(p core.Placement, batch int) (lat, xfer, kern sim.Time) {
		g := &stacks.GPU{Batch: batch, Slots: 1}
		testbed.Run(specFor(core.ClusterConfig{Nodes: 2, Placement: p}, g),
			func(tk *sim.Task, d *testbed.Deployment) {
				lat, xfer, kern = g.OneRequestTimed(tk)
			})
		return
	}
	measureRC := func(batch int) sim.Time {
		var lat sim.Time
		runOn(core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			r := newRCUDAService(tk, cl, batch, 1)
			start := tk.Now()
			r.oneRequest(tk)
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
		t.AddRow(fmt.Sprint(batch), ms(fc),
			fmt.Sprintf("%s/%s/%s", ms(xfer), ms(kern), ms(ovh)),
			ms(fsn), ms(rc), ms(lg))
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
	frTput := func(inflight int) float64 {
		var tput float64
		g := &stacks.GPU{Batch: tputBatch, Slots: inflight}
		testbed.Run(specFor(core.ClusterConfig{Nodes: 2}, g),
			func(tk *sim.Task, d *testbed.Deployment) {
				st := load.Closed{Clients: inflight, PerClient: reqsPerWorker}.Run(tk,
					func(wt *sim.Task, _, _ int) error {
						g.OneRequest(wt)
						return nil
					})
				tput = st.Throughput()
			})
		return tput
	}
	rcTput := func(inflight int) float64 {
		var tput float64
		runOn(core.ClusterConfig{Nodes: 2}, func(tk *sim.Task, cl *core.Cluster) {
			r := newRCUDAService(tk, cl, tputBatch, inflight)
			st := load.Closed{Clients: inflight, PerClient: reqsPerWorker}.Run(tk,
				func(wt *sim.Task, _, _ int) error {
					r.oneRequest(wt)
					return nil
				})
			tput = st.Throughput()
		})
		return tput
	}
	localIdeal := 1e9 / (float64(gpu.DefaultConfig().LaunchOverhead) + float64(tputBatch)*float64(faceverify.KernelPerImage))
	t.AddRow("", "", "", "", "", "")
	t.AddRow("inflight", "FractOS req/s", "", "", "rCUDA req/s", "ideal GPU req/s")
	for _, inflight := range []int{1, 2, 4, 8} {
		ft := frTput(inflight)
		rt := rcTput(inflight)
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
