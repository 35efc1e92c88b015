package stacks

import (
	"fractos/internal/app/faceverify"
	"fractos/internal/assert"
	"fractos/internal/cap"
	"fractos/internal/device/gpu"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// GPU deploys the FractOS GPU compute service of §6.3: a GPU device
// (96 MiB) with the face-verification kernel registered, its adaptor
// Process on node 1, and a client Process on node 0 holding one
// pre-allocated buffer set (image batch, probes, output, reply
// Request) per in-flight slot.
type GPU struct {
	Batch int // images per request; default 1
	Slots int // in-flight slots; default 1

	// Filled at deploy.
	Dev *gpu.Device
	App *proc.Process

	invoke proc.Cap
	slots  []gpuSlot
	free   *sim.Semaphore

	lastTransfer sim.Time // upload time of the most recent request
}

type gpuSlot struct {
	imgMem, probeMem            proc.Cap // app-side buffers
	gpuImg, gpuProbe, gpuOut    proc.Cap
	imgAddr, probeAddr, outAddr uint64
	reply                       proc.Cap
	replyTag                    uint64
	imgOff, probeOff            int
}

// Deploy implements testbed.Service: context init, kernel load, and
// per-slot GPU allocations all happen here, inside the main task,
// before the workload starts.
func (g *GPU) Deploy(tk *sim.Task, d *testbed.Deployment) {
	if g.Batch == 0 {
		g.Batch = 1
	}
	if g.Slots == 0 {
		g.Slots = 1
	}
	const adaptorNode, clientNode = 1, 0
	cl := d.Cl
	g.Dev = gpu.NewDevice(cl.K, gpu.DefaultMemSize)
	faceverify.RegisterKernel(g.Dev)
	ad := gpu.NewAdaptor(cl, adaptorNode, "gpu-adaptor", g.Dev)
	assert.NoErr(ad.Start(tk), "stacks/gpu")
	imgBytes := g.Batch * faceverify.ImgSize
	probeBytes := g.Batch * faceverify.ProbeSize
	slotBytes := imgBytes + probeBytes
	g.free = sim.NewSemaphore(g.Slots)
	g.App = proc.Attach(cl, clientNode, "gpu-client", g.Slots*slotBytes+4096)
	ctxInit, err := proc.GrantCap(ad.P, ad.CtxInit, g.App)
	assert.NoErr(err, "stacks/gpu")
	dl, err := g.App.Call(tk, ctxInit, nil, nil, gpu.SlotCont)
	assert.NoErr(err, "stacks/gpu")
	allocReq, _ := dl.Cap(gpu.SlotAlloc)
	loadReq, _ := dl.Cap(gpu.SlotLoad)
	name := faceverify.KernelName
	ld, err := g.App.Call(tk, loadReq,
		[]wire.ImmArg{proc.U64Arg(8, uint64(len(name))), proc.BytesArg(16, []byte(name))},
		nil, gpu.SlotCont)
	assert.NoErr(err, "stacks/gpu")
	g.invoke, _ = ld.Cap(gpu.SlotKernel)

	alloc := func(size int) (proc.Cap, uint64) {
		dl, err := g.App.Call(tk, allocReq, []wire.ImmArg{proc.U64Arg(8, uint64(size))}, nil, gpu.SlotCont)
		assert.NoErr(err, "stacks/gpu")
		if st := dl.U64(0); st != gpu.StatusOK {
			assert.Failf("stacks/gpu: gpu alloc status %d", st)
		}
		c, _ := dl.Cap(gpu.SlotBuf)
		return c, dl.U64(8)
	}
	for i := 0; i < g.Slots; i++ {
		var s gpuSlot
		s.gpuImg, s.imgAddr = alloc(imgBytes)
		s.gpuProbe, s.probeAddr = alloc(probeBytes)
		s.gpuOut, s.outAddr = alloc(g.Batch)
		s.imgOff = i * slotBytes
		s.probeOff = s.imgOff + imgBytes
		s.imgMem, err = g.App.MemoryCreate(tk, uint64(s.imgOff), uint64(imgBytes), cap.MemRights)
		assert.NoErr(err, "stacks/gpu")
		s.probeMem, err = g.App.MemoryCreate(tk, uint64(s.probeOff), uint64(probeBytes), cap.MemRights)
		assert.NoErr(err, "stacks/gpu")
		s.reply, s.replyTag, err = g.App.ReplyRequest(tk)
		assert.NoErr(err, "stacks/gpu")
		g.slots = append(g.slots, s)
	}
}

// OneRequestTimed runs one request and returns the latency breakdown:
// data-transfer time, kernel-execution time, and everything else
// (FractOS request handling) — the stacked bars of Figure 9 (left).
func (g *GPU) OneRequestTimed(tk *sim.Task) (total, transfer, kernel sim.Time) {
	start := tk.Now()
	busy0 := g.Dev.BusyTime
	g.OneRequest(tk)
	total = tk.Now() - start
	kernel = g.Dev.BusyTime - busy0
	transfer = g.lastTransfer
	return
}

// OneRequest uploads the image batch + probes, invokes the kernel, and
// waits for its continuation — the single-round-trip invocation that
// makes FractOS beat rCUDA's per-driver-call interposition (§6.3).
func (g *GPU) OneRequest(tk *sim.Task) {
	g.free.Acquire(tk)
	s := g.slots[len(g.slots)-1]
	g.slots = g.slots[:len(g.slots)-1]
	defer func() {
		g.slots = append(g.slots, s)
		g.free.Release()
	}()
	xferStart := tk.Now()
	assert.NoErr(g.App.MemoryCopy(tk, s.imgMem, s.gpuImg), "stacks/gpu")
	assert.NoErr(g.App.MemoryCopy(tk, s.probeMem, s.gpuProbe), "stacks/gpu")
	g.lastTransfer = tk.Now() - xferStart
	ao := gpu.ArgOffset(len(faceverify.KernelName), 0)
	dl, err := g.App.CallWith(tk, g.invoke,
		[]wire.ImmArg{
			proc.U64Arg(ao, s.imgAddr), proc.U64Arg(ao+8, s.probeAddr),
			proc.U64Arg(ao+16, s.outAddr), proc.U64Arg(ao+24, uint64(g.Batch)),
		},
		[]proc.Arg{{Slot: gpu.SlotSuccess, Cap: s.reply}, {Slot: gpu.SlotError, Cap: s.reply}}, s.reply, s.replyTag)
	assert.NoErr(err, "stacks/gpu")
	if st := dl.U64(0); st != gpu.StatusOK {
		assert.Failf("stacks/gpu: gpu pipeline status %d", st)
	}
}

var _ testbed.Service = (*GPU)(nil)
