package baseline

import (
	"fmt"

	"fractos/internal/device/gpu"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// rCUDA protocol kinds: one RPC per interposed CUDA driver call.
const (
	rcudaMalloc uint32 = 0x200 + iota
	rcudaFree
	rcudaMemcpyH2D
	rcudaMemcpyD2H
	rcudaLaunch
)

// rCUDA per-call costs. rCUDA interposes the CUDA API transparently,
// which the paper identifies as its weakness: every driver call is a
// full network round trip through generic marshalling layers, and the
// data path always runs application-node ↔ GPU node (§6.3).
const (
	rcudaServerPerCall = 18 * sim.Time(1000) // server-side interposition
	rcudaClientPerCall = 6 * sim.Time(1000)  // client stub marshalling
)

// RCUDAServer runs on the GPU node, executing interposed driver calls
// against the device.
type RCUDAServer struct {
	peer *Peer
	dev  *gpu.Device
	mem  []byte // the GPU memory materialized so far: up to the highest byte allocated or touched
	free int
}

// NewRCUDAServer attaches the server next to its GPU.
func NewRCUDAServer(net *fabric.Net, node int, dev *gpu.Device) *RCUDAServer {
	s := &RCUDAServer{dev: dev}
	s.peer = NewPeer(net, fmt.Sprintf("rcuda-server.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}, rcudaServerPerCall, s.serve)
	return s
}

// Endpoint returns the server's fabric address.
func (s *RCUDAServer) Endpoint() fabric.EndpointID { return s.peer.EP.ID }

// touch materializes the memory up to end (at most MemSize) and returns it.
func (s *RCUDAServer) touch(end int) []byte {
	if end > len(s.mem) {
		s.mem = append(s.mem, make([]byte, end-len(s.mem))...)
	}
	return s.mem
}

// serve answers a launch once its kernel has run on the GPU (Ran), every
// other driver call at once.
func (s *RCUDAServer) serve(req Request) error {
	switch req.Kind {
	case rcudaMalloc:
		size := int(getU64(req.Data, 0))
		if size <= 0 || size > s.dev.MemSize()-s.free {
			return ErrPeer
		}
		addr := s.free
		s.free += size
		s.touch(s.free)
		s.peer.Reply(header([]uint64{0, uint64(addr)}, nil), false)
	case rcudaFree:
		// The simple bump allocator leaks, like a short benchmark run.
		s.peer.Reply(header([]uint64{0}, nil), false)
	case rcudaMemcpyH2D:
		addr, data := int64(getU64(req.Data, 0)), tail(req.Data, 8)
		if !wire.Within(uint64(addr), uint64(len(data)), uint64(s.dev.MemSize())) {
			return ErrPeer
		}
		copy(s.touch(int(addr) + len(data))[addr:], data)
		s.peer.Reply(header([]uint64{0}, nil), false)
	case rcudaMemcpyD2H:
		addr, n := int64(getU64(req.Data, 0)), int64(getU64(req.Data, 8))
		if !wire.Within(uint64(addr), uint64(n), uint64(s.dev.MemSize())) {
			return ErrPeer
		}
		s.peer.Reply(header([]uint64{0}, s.touch(int(addr + n))[addr:addr+n]), true)
	case rcudaLaunch:
		nameLen := getU64(req.Data, 0)
		if !wire.Within(8, nameLen, uint64(len(req.Data))) {
			return ErrPeer
		}
		return s.dev.Launch(s, string(req.Data[8:8+nameLen]), decodeU64s(req.Data[8+nameLen:]))
	default:
		return ErrPeer
	}
	return nil
}

// Memory implements gpu.Runner: a kernel runs on the memory materialized
// so far, which nothing grows while it runs, since the server serves one
// call at a time.
func (s *RCUDAServer) Memory() []byte { return s.mem }

// Ran implements gpu.Runner: the kernel's status answers the launch.
func (s *RCUDAServer) Ran(_ *proc.Delivery, st uint64) {
	s.peer.Reply(header([]uint64{st}, nil), false)
}

func decodeU64s(b []byte) []uint64 {
	var out []uint64
	for off := 0; off+8 <= len(b); off += 8 {
		out = append(out, getU64(b, off))
	}
	return out
}

// RCUDAClient is the application-side CUDA stub library.
type RCUDAClient struct{ client }

// NewRCUDAClient attaches a client on the application node.
func NewRCUDAClient(net *fabric.Net, node int, server *RCUDAServer) *RCUDAClient {
	return &RCUDAClient{client{
		peer:    NewPeer(net, fmt.Sprintf("rcuda-client.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}, 0, nil),
		server:  server.Endpoint(),
		proto:   "rcuda",
		perCall: rcudaClientPerCall,
	}}
}

// Malloc allocates GPU memory, returning the device address.
func (c *RCUDAClient) Malloc(t *sim.Task, size int) (uint64, error) {
	r, err := c.call(t, rcudaMalloc, header([]uint64{uint64(size)}, nil), false, 2)
	if err != nil {
		return 0, err
	}
	return getU64(r, 8), nil
}

// MemcpyH2D copies host bytes to a device address.
func (c *RCUDAClient) MemcpyH2D(t *sim.Task, addr uint64, data []byte) error {
	_, err := c.call(t, rcudaMemcpyH2D, header([]uint64{addr}, data), true, 1)
	return err
}

// MemcpyD2H copies n device bytes back to the host.
func (c *RCUDAClient) MemcpyD2H(t *sim.Task, addr uint64, n int) ([]byte, error) {
	r, err := c.call(t, rcudaMemcpyD2H, header([]uint64{addr, uint64(n)}, nil), false, 1)
	if err != nil {
		return nil, err
	}
	return r[8:], nil
}

// Launch synchronously executes a kernel.
func (c *RCUDAClient) Launch(t *sim.Task, kernel string, args ...uint64) error {
	payload := header([]uint64{uint64(len(kernel))}, append([]byte(kernel), header(args, nil)...))
	_, err := c.call(t, rcudaLaunch, payload, false, 1)
	return err
}
