package faceverify

import (
	"fmt"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/device/gpu"
	"fractos/internal/device/nvme"
	"fractos/internal/fs"
	"fractos/internal/proc"
	"fractos/internal/services"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Node roles in the deployment (paper: frontend, GPU, storage; the FS
// service gets its own node so the baseline's NVMe-oF hop crosses the
// network, as in §6.5's message accounting).
const (
	NodeFrontend = 0
	NodeGPU      = 1
	NodeStorage  = 2
	NodeFS       = 3
)

// Config sizes an application instance. Buffers and database files are
// sized to the batch, like the paper's pre-allocated GPU buffer pool.
type Config struct {
	Batch int // images per request (≤ 256: one extent per batch file)
	Files int // database batch files
	Slots int // in-flight request slots (GPU buffer pool size)
	Seed  int64
}

func (c Config) withDefaults() Config {
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.Files == 0 {
		c.Files = 4
	}
	if c.Slots == 0 {
		c.Slots = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c Config) batchBytes() uint64 { return uint64(c.Batch) * ImgSize }

func (c Config) probeBytes() uint64 { return uint64(c.Batch) * ProbeSize }

// FractOSApp is the face-verification frontend on FractOS, with all
// services wired through the capability registry.
type FractOSApp struct {
	cfg Config
	cl  *core.Cluster
	DB  *DB

	GPUDev  *gpu.Device
	NVMeDev *nvme.Device

	gpuAd  *gpu.Adaptor
	nvmeAd *nvme.Adaptor

	app *proc.Process

	invokeReq proc.Cap // GPU kernel invocation Request
	fsOpen    proc.Cap // FS open Request (for tests and extensions)
	files     []*fs.File

	slotSem  *sim.Semaphore
	slots    []*slot // free pool (slots are checked out per request)
	allSlots []*slot
	ring     *ringState
}

// slot is one pre-allocated pipeline lane: GPU buffers, app buffers, a
// reusable continuation Request, and the kernel Request preset with all
// of them — a request derives nothing.
type slot struct {
	gpuDB, gpuProbe, gpuOut    proc.Cap
	dbAddr, probeAddr, outAddr uint64
	probeMem, outMem           proc.Cap
	probeOff, outOff           int
	reply                      proc.Cap
	replyTag                   uint64
	kernel                     proc.Cap // continues at reply
	ringKernel                 proc.Cap // continues at the slot's ring write (EnableRing)
}

// SetupFractOS deploys devices, adaptors, the storage stack, the
// registry, and the frontend, and prepares the request pipeline. Must
// run in task context.
func SetupFractOS(t *sim.Task, cl *core.Cluster, cfg Config) (*FractOSApp, error) {
	cfg = cfg.withDefaults()
	if cfg.Batch > 256 {
		return nil, fmt.Errorf("faceverify: batch %d exceeds one extent", cfg.Batch)
	}
	a := &FractOSApp{cfg: cfg, cl: cl, DB: NewDB(cfg.Files*cfg.Batch, cfg.Seed)}

	// Devices and adaptors.
	a.GPUDev = gpu.NewDevice(cl.K, gpu.DefaultConfig())
	RegisterKernel(a.GPUDev)
	gpuAd := gpu.NewAdaptor(cl, NodeGPU, "gpu-adaptor", a.GPUDev)
	a.gpuAd = gpuAd
	if err := gpuAd.Start(t); err != nil {
		return nil, err
	}
	a.NVMeDev = nvme.NewDevice(cl.K, nvme.DefaultConfig())
	nvmeAd := nvme.NewAdaptor(cl, NodeStorage, "nvme-adaptor", a.NVMeDev)
	a.nvmeAd = nvmeAd
	if err := nvmeAd.Start(t); err != nil {
		return nil, err
	}
	fsSvc := fs.NewService(cl, NodeFS, "fs-service")
	if err := fsSvc.Wire(nvmeAd); err != nil {
		return nil, err
	}
	if err := fsSvc.Start(t); err != nil {
		return nil, err
	}

	// Registry-based bootstrap: services publish their roots, the
	// frontend looks them up.
	reg := services.NewRegistry(cl, NodeFrontend)
	if err := reg.Start(t); err != nil {
		return nil, err
	}
	gpuCl, err := reg.Connect(gpuAd.P)
	if err != nil {
		return nil, err
	}
	if _, err := gpuCl.Register(t, "gpu.ctxinit", gpuAd.CtxInit, NodeGPU); err != nil {
		return nil, err
	}
	fsCl, err := reg.Connect(fsSvc.P)
	if err != nil {
		return nil, err
	}
	if _, err := fsCl.Register(t, "fs.open", fsSvc.Open, NodeFS); err != nil {
		return nil, err
	}
	if _, err := fsCl.Register(t, "fs.close", fsSvc.Close, NodeFS); err != nil {
		return nil, err
	}

	// Frontend Process: per-slot probe + result buffers.
	slotBytes := int(cfg.probeBytes()) + cfg.Batch
	// The arena also holds a batch-file staging buffer for seeding.
	a.app = proc.Attach(cl, NodeFrontend, "frontend", cfg.Slots*slotBytes+int(cfg.batchBytes())+4096)
	appCl, err := reg.Connect(a.app)
	if err != nil {
		return nil, err
	}

	// GPU context: init, load kernel, allocate the buffer pool.
	ctxInit, err := appCl.Resolve(t, "gpu.ctxinit")
	if err != nil {
		return nil, err
	}
	d, err := a.app.Call(t, ctxInit, nil, nil, gpu.SlotCont)
	if err != nil {
		return nil, err
	}
	allocReq, ok1 := d.Cap(gpu.SlotAlloc)
	loadReq, ok2 := d.Cap(gpu.SlotLoad)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("faceverify: incomplete GPU context reply")
	}
	a.invokeReq, err = a.loadKernel(t, loadReq)
	if err != nil {
		return nil, err
	}

	a.slotSem = sim.NewSemaphore(cfg.Slots)
	for range cfg.Slots {
		s, err := a.makeSlot(t, slotBytes, allocReq)
		if err != nil {
			return nil, err
		}
		a.slots = append(a.slots, s)
		a.allSlots = append(a.allSlots, s)
	}

	// Seed the database through the FS (write mode), then reopen every
	// batch file in DAX mode for the datapath.
	fsOpen, err := appCl.Resolve(t, "fs.open")
	if err != nil {
		return nil, err
	}
	a.fsOpen = fsOpen
	if err := a.seedDB(t, fsOpen); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Files; i++ {
		f, err := fs.OpenFile(t, a.app, fsOpen, batchFileName(i), fs.OpenRead|fs.OpenDAX, 0)
		if err != nil {
			return nil, fmt.Errorf("faceverify: dax open: %w", err)
		}
		a.files = append(a.files, f)
	}
	return a, nil
}

func batchFileName(i int) string { return fmt.Sprintf("db-batch-%04d.bin", i) }

func (a *FractOSApp) loadKernel(t *sim.Task, loadReq proc.Cap) (proc.Cap, error) {
	d, err := a.app.Call(t, loadReq,
		[]wire.ImmArg{proc.U64Arg(8, uint64(len(KernelName))), proc.BytesArg(16, []byte(KernelName))},
		nil, gpu.SlotCont)
	if err != nil {
		return proc.Cap{}, err
	}
	if st := d.U64(0); st != gpu.StatusOK {
		return proc.Cap{}, fmt.Errorf("faceverify: kernel load status %d", st)
	}
	inv, ok := d.Cap(gpu.SlotKernel)
	if !ok {
		return proc.Cap{}, fmt.Errorf("faceverify: no kernel request")
	}
	return inv, nil
}

func (a *FractOSApp) gpuAlloc(t *sim.Task, allocReq proc.Cap, size uint64) (proc.Cap, uint64, error) {
	d, err := a.app.Call(t, allocReq, []wire.ImmArg{proc.U64Arg(8, size)}, nil, gpu.SlotCont)
	if err != nil {
		return proc.Cap{}, 0, err
	}
	if st := d.U64(0); st != gpu.StatusOK {
		return proc.Cap{}, 0, fmt.Errorf("faceverify: gpu alloc status %d", st)
	}
	buf, ok := d.Cap(gpu.SlotBuf)
	if !ok {
		return proc.Cap{}, 0, fmt.Errorf("faceverify: no buffer cap")
	}
	return buf, d.U64(8), nil
}

func (a *FractOSApp) makeSlot(t *sim.Task, slotBytes int, allocReq proc.Cap) (*slot, error) {
	s := &slot{}
	var err error
	n := a.cfg.batchBytes()
	pn := a.cfg.probeBytes()
	if s.gpuDB, s.dbAddr, err = a.gpuAlloc(t, allocReq, n); err != nil {
		return nil, err
	}
	if s.gpuProbe, s.probeAddr, err = a.gpuAlloc(t, allocReq, pn); err != nil {
		return nil, err
	}
	if s.gpuOut, s.outAddr, err = a.gpuAlloc(t, allocReq, uint64(a.cfg.Batch)); err != nil {
		return nil, err
	}
	// Reserve the slot's arena region through the allocator so later
	// allocations (seeding stage, ring read-back buffers) cannot
	// overlap it.
	region, err := a.app.Alloc(slotBytes)
	if err != nil {
		return nil, err
	}
	s.probeOff = region
	s.outOff = s.probeOff + int(pn)
	if s.probeMem, err = a.app.MemoryCreate(t, uint64(s.probeOff), pn, cap.MemRights); err != nil {
		return nil, err
	}
	if s.outMem, err = a.app.MemoryCreate(t, uint64(s.outOff), uint64(a.cfg.Batch), cap.MemRights); err != nil {
		return nil, err
	}
	// One reusable reply Request per slot: the GPU adaptor invokes it on
	// success or error, carrying the status.
	if s.reply, s.replyTag, err = a.app.ReplyRequest(t); err != nil {
		return nil, err
	}
	s.kernel, err = a.kernelRequest(t, s, s.reply)
	return s, err
}

// kernelRequest derives the slot's kernel Request: the kernel preset with
// the slot's buffers and the batch size, continuing at onSuccess, or on an
// error at the slot's reply Request (the status tells when they are one).
func (a *FractOSApp) kernelRequest(t *sim.Task, s *slot, onSuccess proc.Cap) (proc.Cap, error) {
	kr, err := a.app.Derive(t, a.invokeReq,
		[]wire.ImmArg{proc.BytesArg(gpu.ArgOffset(len(KernelName), 0),
			putArgs(s.dbAddr, s.probeAddr, s.outAddr, uint64(a.cfg.Batch)))},
		[]proc.Arg{{Slot: gpu.SlotSuccess, Cap: onSuccess}, {Slot: gpu.SlotError, Cap: s.reply}})
	if err != nil {
		return proc.Cap{}, fmt.Errorf("faceverify: kernel derive: %w", err)
	}
	return kr, nil
}

// seedDB writes each batch file through the FS service (write mode),
// staging through a temporary arena region that is freed afterwards.
func (a *FractOSApp) seedDB(t *sim.Task, fsOpen proc.Cap) error {
	n := a.cfg.batchBytes()
	off, err := a.app.Alloc(int(n))
	if err != nil {
		return err
	}
	defer a.app.Free(off)
	stage, err := a.app.MemoryCreate(t, uint64(off), n, cap.MemRights)
	if err != nil {
		return err
	}
	defer a.app.Drop(t, stage)
	for i := 0; i < a.cfg.Files; i++ {
		f, err := fs.OpenFile(t, a.app, fsOpen, batchFileName(i), fs.OpenRead|fs.OpenWrite|fs.OpenCreate, n)
		if err != nil {
			return err
		}
		a.DB.batchInto(a.app.ArenaRange(off, int(n)), i*a.cfg.Batch)
		if err := f.WriteAt(t, 0, n, stage); err != nil {
			return err
		}
	}
	return nil
}

// VerifyBatch executes one request through the decentralized pipeline
// and returns the per-image match verdicts.
//
// Pipeline (Figure 2's green path): probe upload (app→GPU), then one
// invocation of the storage lease whose continuation is the fully
// preset GPU kernel Request; the block adaptor copies the database
// images straight into GPU memory and invokes the kernel verbatim; the
// kernel's continuation notifies the frontend, which downloads the
// small result vector.
func (a *FractOSApp) VerifyBatch(t *sim.Task, req *Request) ([]byte, error) {
	if req.Batch != a.cfg.Batch {
		return nil, fmt.Errorf("faceverify: request batch %d != configured %d", req.Batch, a.cfg.Batch)
	}
	a.slotSem.Acquire(t)
	s := a.slots[len(a.slots)-1]
	a.slots = a.slots[:len(a.slots)-1]
	defer func() {
		a.slots = append(a.slots, s)
		a.slotSem.Release()
	}()

	n := a.cfg.batchBytes()
	file := a.files[req.FileIdx%len(a.files)]

	// (a) Upload the probe descriptors.
	copy(a.app.Arena()[s.probeOff:s.probeOff+int(a.cfg.probeBytes())], req.Probes)
	if err := a.app.MemoryCopy(t, s.probeMem, s.gpuProbe); err != nil {
		return nil, fmt.Errorf("faceverify: probe upload: %w", err)
	}

	// (b) Invoke the storage read with the GPU buffer as destination
	// and the slot's kernel Request as continuation, and wait for the
	// pipeline to come back to us.
	d, err := a.storageReadInto(t, file, n, s.gpuDB, s.kernel, s)
	if err != nil {
		return nil, err
	}
	if st := d.U64(0); st != gpu.StatusOK {
		return nil, fmt.Errorf("faceverify: pipeline status %d", st)
	}

	// (c) Download the result vector.
	if err := a.app.MemoryCopy(t, s.gpuOut, s.outMem); err != nil {
		return nil, err
	}
	out := make([]byte, req.Batch)
	copy(out, a.app.Arena()[s.outOff:s.outOff+req.Batch])
	return out, nil
}

// storageReadInto invokes the file's DAX lease (extent 0) with the
// destination Memory and continuation Request, and returns the reply
// that comes back through the slot's reply Request at the end of the
// continuation chain, borrowed (proc.Process.CallWith).
func (a *FractOSApp) storageReadInto(t *sim.Task, f *fs.File, n uint64, dst, cont proc.Cap, s *slot) (*proc.Delivery, error) {
	lease, ok := f.DAXLease(0, false)
	if !ok {
		return nil, fmt.Errorf("faceverify: no DAX read lease")
	}
	return a.app.CallWith(t, lease,
		[]wire.ImmArg{proc.U64Arg(nvme.ImmOff, 0), proc.U64Arg(nvme.ImmLen, n)},
		[]proc.Arg{{Slot: nvme.SlotData, Cap: dst}, {Slot: nvme.SlotCont, Cap: cont}}, s.reply, s.replyTag)
}
