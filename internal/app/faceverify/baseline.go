package faceverify

import (
	"fmt"

	"fractos/internal/baseline"
	"fractos/internal/core"
	"fractos/internal/device/gpu"
	"fractos/internal/device/nvme"
	"fractos/internal/sim"
)

// BaselineApp is the face-verification frontend on the paper's
// baseline stack (§6.5): NFS (backed by NVMe-oF) for storage, rCUDA
// for the GPU. All control and data funnel through the frontend node —
// the star topology whose disaggregation tax FractOS removes.
type BaselineApp struct {
	cfg Config
	cl  *core.Cluster
	DB  *DB

	GPUDev  *gpu.Device
	NVMeDev *nvme.Device

	nfs   *baseline.NFSClient
	rcuda *baseline.RCUDAClient

	slotSem *sim.Semaphore
	slots   []*baseSlot
}

// baseSlot is one in-flight lane: pre-allocated GPU addresses.
type baseSlot struct {
	dbAddr, probeAddr, outAddr uint64
}

// SetupBaseline deploys the baseline stack on the same node roles as
// the FractOS deployment and seeds the same database.
func SetupBaseline(t *sim.Task, cl *core.Cluster, cfg Config) (*BaselineApp, error) {
	cfg = cfg.withDefaults()
	if cfg.Batch > 256 {
		return nil, fmt.Errorf("faceverify: batch %d exceeds one extent", cfg.Batch)
	}
	a := &BaselineApp{cfg: cfg, cl: cl, DB: NewDB(cfg.Files*cfg.Batch, cfg.Seed)}

	a.GPUDev = gpu.NewDevice(cl.K, gpu.DefaultMemSize)
	RegisterKernel(a.GPUDev)
	rcudaSrv := baseline.NewRCUDAServer(cl.Net, NodeGPU, a.GPUDev)
	a.rcuda = baseline.NewRCUDAClient(cl.Net, NodeFrontend, rcudaSrv)

	a.NVMeDev = nvme.NewDevice(cl.K, nvme.DefaultCapacity)
	target := baseline.NewNVMeoFTarget(cl.Net, NodeStorage, a.NVMeDev)
	ini := baseline.NewNVMeoFInitiator(cl.Net, NodeFS, target)
	nfsSrv := baseline.NewNFSServer(cl.Net, NodeFS, ini)
	a.nfs = baseline.NewNFSClient(cl.Net, NodeFrontend, nfsSrv)

	// Seed the database over NFS, one file at a time through one buffer
	// (the client copies what it writes into its message).
	n := int64(cfg.batchBytes())
	buf := make([]byte, n)
	for i := 0; i < cfg.Files; i++ {
		name := batchFileName(i)
		if err := a.nfs.Create(t, name, n); err != nil {
			return nil, err
		}
		fd, _, err := a.nfs.Open(t, name)
		if err != nil {
			return nil, err
		}
		a.DB.batchInto(buf, i*cfg.Batch)
		if err := a.nfs.Write(t, fd, 0, buf); err != nil {
			return nil, err
		}
	}
	// Give write-back a moment to drain, then drop the FS-node cache
	// so measurement starts cold (the paper's random reads are
	// cache-ineffective, §6.4).
	t.Sleep(5 * sim.Time(1e6))
	ini.SetCacheSize(baseline.BlockCacheSize)

	// Pre-allocate the GPU buffer pool (same pool discipline as the
	// FractOS app).
	a.slotSem = sim.NewSemaphore(cfg.Slots)
	for i := 0; i < cfg.Slots; i++ {
		s := &baseSlot{}
		var err error
		if s.dbAddr, err = a.rcuda.Malloc(t, int(cfg.batchBytes())); err != nil {
			return nil, err
		}
		if s.probeAddr, err = a.rcuda.Malloc(t, int(cfg.probeBytes())); err != nil {
			return nil, err
		}
		if s.outAddr, err = a.rcuda.Malloc(t, cfg.Batch); err != nil {
			return nil, err
		}
		a.slots = append(a.slots, s)
	}
	return a, nil
}

// VerifyBatch executes one request through the baseline star: open,
// NFS read (data to the frontend), two rCUDA uploads, launch, download.
func (a *BaselineApp) VerifyBatch(t *sim.Task, req *Request) ([]byte, error) {
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

	// (1) Fetch the database images to the frontend via NFS.
	fd, _, err := a.nfs.Open(t, batchFileName(req.FileIdx%a.cfg.Files))
	if err != nil {
		return nil, err
	}
	dbImgs, err := a.nfs.Read(t, fd, 0, int(a.cfg.batchBytes()))
	if err != nil {
		return nil, err
	}

	// (2) Ship everything to the GPU through rCUDA.
	if err := a.rcuda.MemcpyH2D(t, s.dbAddr, dbImgs); err != nil {
		return nil, err
	}
	if err := a.rcuda.MemcpyH2D(t, s.probeAddr, req.Probes); err != nil {
		return nil, err
	}
	// (3) Launch synchronously.
	if err := a.rcuda.Launch(t, KernelName, s.dbAddr, s.probeAddr, s.outAddr, uint64(req.Batch)); err != nil {
		return nil, err
	}
	// (4) Download results.
	return a.rcuda.MemcpyD2H(t, s.outAddr, req.Batch)
}
