// Package stacks provides the declarative service specs deployed by a
// testbed.Spec: the NVMe adaptor, the extent FS (with its three
// backend modes), the GPU compute service, the routed replicated
// service, and the face-verification application. Each spec is a
// testbed.Service whose Deploy fills the spec's exported handle fields
// in place; workloads keep the spec pointer and use the handles after
// testbed.Run enters the main task.
//
// The package lives below internal/testbed so packages with internal
// tests (fs, baseline, faceverify) can import the testbed core without
// an import cycle; stacks imports them, not vice versa.
package stacks

import (
	"fractos/internal/assert"
	"fractos/internal/baseline"
	"fractos/internal/cap"
	"fractos/internal/device/nvme"
	"fractos/internal/fs"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

// NVMe deploys an NVMe device plus its adaptor Process
// ("nvme-adaptor") on a node.
type NVMe struct {
	Node int
	Ad   *nvme.Adaptor // filled at deploy
}

// Deploy implements testbed.Service.
func (s *NVMe) Deploy(tk *sim.Task, d *testbed.Deployment) {
	s.Ad = nvme.NewAdaptor(d.Cl, s.Node, "nvme-adaptor", nvme.NewDevice(d.Cl.K, nvme.DefaultCapacity))
	assert.NoErr(s.Ad.Start(tk), "stacks/nvme")
}

// FS deploys the extent FS service ("fs-service") on a node, wired to
// an NVMe adaptor deployed earlier in the Services list.
type FS struct {
	Node    int
	Backend *NVMe       // must appear before this spec in Spec.Services
	Svc     *fs.Service // filled at deploy
}

// Deploy implements testbed.Service.
func (s *FS) Deploy(tk *sim.Task, d *testbed.Deployment) {
	if s.Backend == nil || s.Backend.Ad == nil {
		assert.Failf("stacks/fs: Backend NVMe spec missing or not yet deployed")
	}
	s.Svc = fs.NewService(d.Cl, s.Node, "fs-service")
	assert.NoErr(s.Svc.Wire(s.Backend.Ad), "stacks/fs")
	assert.NoErr(s.Svc.Start(tk), "stacks/fs")
}

// StorageKind selects the storage system under test (Figure 10's
// lines).
type StorageKind int

const (
	// StorFS stages every byte through the FS Process.
	StorFS StorageKind = iota
	// StorDAX leases extents to the client for direct device access.
	StorDAX
	// StorDisagg is the NVMe-oF disaggregated baseline backend.
	StorDisagg
)

// Storage deploys the full storage benchmark stack of §6.4: an NVMe
// device, the FS service (or the disaggregated baseline backend), and
// a client Process (12 MiB of memory) holding an open benchmark file
// of fs.MaxExtents × fs.ExtentSize (8 MiB). The client is on node 0,
// the FS on node 1, and the device on node 2 — the paper's three-node
// storage topology.
type Storage struct {
	Kind     StorageKind
	ForWrite bool // reopen the benchmark file writable

	// Filled at deploy.
	Client *proc.Process
	File   *fs.File
	Svc    *fs.Service
	Open   proc.Cap // client's open-file Request capability
	// SetCacheSize resizes and empties the baseline backend's block
	// cache; it is nil for the FractOS kinds (the FractOS FS has no
	// cache).
	SetCacheSize func(int64)

	mem map[uint64]proc.Cap // size → cached client Memory capability
}

// Deploy implements testbed.Service. The construction order is the
// evaluation's reference order (device, FS service, backend wiring,
// service start, client attach, file create + reopen, cache drop);
// changing it would shift virtual timestamps during setup, though not
// the steady-state metrics measured afterwards.
func (s *Storage) Deploy(tk *sim.Task, d *testbed.Deployment) {
	const (
		clientNode, fsNode, devNode = 0, 1, 2
		fileName                    = "bench.bin"
		fileBytes                   = uint64(fs.MaxExtents) * fs.ExtentSize
		clientMem                   = 12 << 20
	)
	cl := d.Cl
	dev := nvme.NewDevice(cl.K, nvme.DefaultCapacity)
	s.Svc = fs.NewService(cl, fsNode, "fs")
	switch s.Kind {
	case StorDisagg:
		be := baseline.NewDisaggregatedBackend(cl, fsNode, devNode, dev)
		s.Svc.WireBackend(be)
		s.SetCacheSize = be.SetCacheSize
	default:
		ad := nvme.NewAdaptor(cl, devNode, "nvme", dev)
		assert.NoErr(ad.Start(tk), "stacks/storage")
		assert.NoErr(s.Svc.Wire(ad), "stacks/storage")
	}
	assert.NoErr(s.Svc.Start(tk), "stacks/storage")
	s.Client = proc.Attach(cl, clientNode, "stor-client", clientMem)
	open, err := proc.GrantCap(s.Svc.P, s.Svc.Open, s.Client)
	assert.NoErr(err, "stacks/storage")
	s.Open = open
	mode := uint64(fs.OpenRead | fs.OpenWrite | fs.OpenCreate)
	_, err = fs.OpenFile(tk, s.Client, open, fileName, mode, fileBytes)
	assert.NoErr(err, "stacks/storage")
	reopen := uint64(fs.OpenRead)
	if s.ForWrite {
		reopen |= fs.OpenWrite
	}
	if s.Kind == StorDAX {
		reopen |= fs.OpenDAX
	}
	f, err := fs.OpenFile(tk, s.Client, open, fileName, reopen, 0)
	assert.NoErr(err, "stacks/storage")
	s.File = f
	s.mem = map[uint64]proc.Cap{}
	if s.SetCacheSize != nil {
		s.SetCacheSize(baseline.BlockCacheSize) // drop the caches
	}
}

// Buf returns (caching by size) a client Memory capability of exactly
// n bytes.
func (s *Storage) Buf(tk *sim.Task, n uint64) proc.Cap {
	if c, ok := s.mem[n]; ok {
		return c
	}
	c := s.Alloc(tk, n)
	s.mem[n] = c
	return c
}

// Alloc registers a fresh (uncached) client Memory capability of n
// bytes — one per concurrent worker in throughput runs.
func (s *Storage) Alloc(tk *sim.Task, n uint64) proc.Cap {
	c, _, err := s.Client.AllocMemory(tk, int(n), cap.MemRights)
	assert.NoErr(err, "stacks/storage")
	return c
}

var _ testbed.Service = (*NVMe)(nil)
var _ testbed.Service = (*FS)(nil)
var _ testbed.Service = (*Storage)(nil)
