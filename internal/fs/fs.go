// Package fs implements the FractOS storage-stack file system of §5:
// an extent-based FS service layered on the block-device adaptor. Each
// file extent is one logical volume on the NVMe device.
//
// The stack works in two modes:
//
//   - FS mode: all reads and writes are mediated by the FS Process —
//     data is staged through FS memory between the client and the
//     block device (the centralized execution model; two network
//     transfers per operation).
//
//   - DAX mode: opening a file returns the per-extent block-device
//     Requests themselves, wrapped in revocable leases and diminished
//     according to the open mode. Clients then talk to the block
//     device directly, composing across the service boundary without
//     breaking encapsulation (§3.4's dynamic composition; the DAX
//     optimization of Figure 4 and §6.4).
package fs

import (
	"fmt"
	"slices"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/device/nvme"
	"fractos/internal/proc"
	"fractos/internal/sim"
)

// FS service Request tags and argument conventions.
const (
	// TagOpen opens (or creates) a file.
	// imm[0:8) = mode flags, [8:16) = name length, [16:16+len) = name,
	// and for creates [16+len … ) an 8-byte-aligned uint64 size hint
	// is optional via OpenSizeOff; caps: SlotCont = reply.
	//
	// Reply: imm[0:8) = status, [8:16) = file size, [16:24) = extent
	// count, [24:32) = extent size, [32:40) = open handle.
	// FS mode caps: SlotFSRead / SlotFSWrite (per the open mode).
	// DAX mode caps: per-extent leases at DAXReadSlot(i)/DAXWriteSlot(i).
	TagOpen uint64 = 0x30
	// TagClose closes an open handle, revoking DAX leases.
	// imm[8:16) = handle; caps: SlotCont = reply (imm[0:8) = status).
	TagClose uint64 = 0x31
	// TagRead reads through the FS (FS mode).
	// imm[8:16) = file id (preset), [16:24) = offset, [24:32) =
	// length; caps: SlotData = destination Memory, SlotCont =
	// continuation (imm[0:8) = status). imm[0:8) is reserved for the
	// upstream-status convention, so FS Requests are themselves
	// continuation-capable.
	TagRead uint64 = 0x32
	// TagWrite writes through the FS (FS mode); SlotData = source.
	TagWrite uint64 = 0x33
)

// Open-mode flags.
const (
	OpenRead   uint64 = 1 << 0
	OpenWrite  uint64 = 1 << 1
	OpenCreate uint64 = 1 << 2
	// OpenDAX requests direct-access mode: the reply carries block-
	// device leases instead of FS-mediated Requests.
	OpenDAX uint64 = 1 << 3
)

// Argument slots.
const (
	SlotData uint16 = 0
	SlotCont uint16 = 1

	SlotFSRead  uint16 = 0
	SlotFSWrite uint16 = 1
)

// DAXReadSlot returns the reply slot of extent i's read lease.
func DAXReadSlot(i int) uint16 { return uint16(2 + 2*i) }

// DAXWriteSlot returns the reply slot of extent i's write lease.
func DAXWriteSlot(i int) uint16 { return uint16(3 + 2*i) }

// Immediate layout of per-file FS Requests (read/write/direct).
const (
	FSImmStatus = 0 // reserved: upstream status when chained
	FSImmFile   = 8 // file id, preset
	FSImmOff    = 16
	FSImmLen    = 24
)

// FS status codes (imm[0:8) of replies/continuations).
const (
	StatusOK       uint64 = 0
	StatusNoFile   uint64 = 1
	StatusBounds   uint64 = 2
	StatusIOErr    uint64 = 3
	StatusBadArg   uint64 = 4
	StatusNoSpace  uint64 = 5
	StatusBadMode  uint64 = 6
	StatusNoHandle uint64 = 7
)

// Geometry.
const (
	// ExtentSize is one extent = one logical volume (1 MiB).
	ExtentSize = 1 << 20
	// MaxExtents bounds a file's extents (slot-encoding limit).
	MaxExtents = 8
)

// The service runs queueDepth operations at once and stages FS-mode I/O
// through as many buffers of ExtentSize bytes, the lowest free one first
// (as the NVMe adaptor does). An operation holds at most one buffer, so
// one is always free when handleIO takes it.
const queueDepth = 8

// extent is one file extent: a logical volume on the backend.
type extent struct {
	vol Volume
}

type file struct {
	id      uint64
	name    string
	size    uint64
	extents []extent
	rdReq   proc.Cap // FS-mode per-file requests (lazily created)
	wrReq   proc.Cap
	rdReqD  proc.Cap // direct (composed) per-file requests
	wrReqD  proc.Cap
}

type openHandle struct {
	fileID uint64
	leases []proc.Cap // DAX leases to revoke on close
}

// Service is the FS Process.
type Service struct {
	P *proc.Process

	backend Backend

	files    map[string]*file
	creating map[string]bool // names with an in-flight create
	byID     map[uint64]*file
	nextFile uint64

	handles    map[uint64]*openHandle
	nextHandle uint64

	stages []Stage // free staging buffers, the lowest offset on top

	// Open is the service's root Request; grant it to clients.
	Open proc.Cap
	// Close is the handle-close Request; grant it alongside Open.
	Close proc.Cap
}

// NewService attaches the FS Process on a node. volCreate must be the
// block-device adaptor's VolCreate Request, already granted to this
// service's Process — see Wire.
func NewService(cl *core.Cluster, node int, name string) *Service {
	return &Service{
		P:        proc.Attach(cl, node, name, queueDepth*ExtentSize),
		files:    make(map[string]*file),
		creating: make(map[string]bool),
		byID:     make(map[uint64]*file),
		handles:  make(map[uint64]*openHandle),
	}
}

// Wire grants the service its block-device capability and installs the
// FractOS backend.
func (s *Service) Wire(ad *nvme.Adaptor) error {
	vc, err := proc.GrantCap(ad.P, ad.VolCreate, s.P)
	if err != nil {
		return err
	}
	s.backend = NewFractOSBackend(s.P, vc)
	return nil
}

// WireBackend installs an alternative block backend (e.g. the NVMe-oF
// initiator of the Disaggregated Baseline).
func (s *Service) WireBackend(b Backend) { s.backend = b }

// Start registers staging memory and the Open Request, then starts
// serving. Wire must have been called.
func (s *Service) Start(t *sim.Task) error {
	if s.backend == nil {
		return fmt.Errorf("fs: not wired to a block backend")
	}
	for i := 0; i < queueDepth; i++ {
		off := i * ExtentSize
		c, err := s.P.MemoryCreate(t, uint64(off), ExtentSize, cap.MemRights)
		if err != nil {
			return fmt.Errorf("fs: staging memory: %w", err)
		}
		s.stages = append(s.stages, Stage{Cap: c, p: s.P, off: off})
	}
	slices.Reverse(s.stages)
	open, err := s.P.RequestCreate(t, TagOpen, nil, nil)
	if err != nil {
		return fmt.Errorf("fs: open request: %w", err)
	}
	s.Open = open
	cls, err := s.P.RequestCreate(t, TagClose, nil, nil)
	if err != nil {
		return fmt.Errorf("fs: close request: %w", err)
	}
	s.Close = cls
	s.P.Serve("fs-service", queueDepth, s.handle)
	return nil
}

func (s *Service) handle(t *sim.Task, d *proc.Delivery) {
	defer d.Release()
	switch d.Tag {
	case TagOpen:
		s.handleOpen(t, d)
	case TagClose:
		s.handleClose(t, d)
	case TagRead:
		s.handleIO(t, d, false)
	case TagWrite:
		s.handleIO(t, d, true)
	case TagReadDirect:
		s.handleDirect(t, d, false)
	case TagWriteDirect:
		s.handleDirect(t, d, true)
	}
}
