package baseline

import (
	"fmt"

	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// NFS protocol kinds.
const (
	nfsOpen uint32 = 0x300 + iota
	nfsRead
	nfsWrite
	nfsCreate
)

// nfsPerOp is the server-side VFS+NFS processing per operation; the
// client stub adds a smaller cost. NFS is heavier than NVMe-oF: it
// runs a full file-system stack per request.
const (
	nfsServerPerOp = 15 * sim.Time(1000)
	nfsClientPerOp = 5 * sim.Time(1000)
)

// NFSServer is the baseline file server: an ext4-like file service
// whose backing store is an NVMe-oF initiator (the paper's baseline
// topology: frontend → NFS → NVMe-oF → SSD, three data transfers end
// to end).
type NFSServer struct {
	peer *Peer
	ini  *NVMeoFInitiator

	files  map[string]*nfsFile
	nextFD uint64
	byFD   map[uint64]*nfsFile
}

type nfsFile struct {
	name string
	off  int64 // device offset
	size int64
}

// NewNFSServer attaches the file server on a node, backed by an
// NVMe-oF initiator on the same node.
func NewNFSServer(net *fabric.Net, node int, ini *NVMeoFInitiator) *NFSServer {
	s := &NFSServer{
		ini:   ini,
		files: make(map[string]*nfsFile),
		byFD:  make(map[uint64]*nfsFile),
	}
	s.peer = NewPeer(net, fmt.Sprintf("nfs-server.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}, nfsServerPerOp, s.serve)
	return s
}

// Endpoint returns the server's fabric address.
func (s *NFSServer) Endpoint() fabric.EndpointID { return s.peer.EP.ID }

// serve answers an open at once, a create, read or write once the
// initiator has served it.
func (s *NFSServer) serve(req Request) error {
	switch req.Kind {
	case nfsCreate:
		nameLen, size := getU64(req.Data, 0), int64(getU64(req.Data, 8))
		if !wire.Within(16, nameLen, uint64(len(req.Data))) {
			return ErrPeer
		}
		name := string(req.Data[16 : 16+nameLen])
		if _, dup := s.files[name]; dup {
			return ErrPeer
		}
		s.ini.Alloc(size, func(off int64, err error) {
			if err == nil {
				s.files[name] = &nfsFile{name: name, off: off, size: size}
			}
			s.peer.answer(err, nil, false)
		})
	case nfsOpen:
		nameLen := getU64(req.Data, 0)
		if !wire.Within(8, nameLen, uint64(len(req.Data))) {
			return ErrPeer
		}
		f, ok := s.files[string(req.Data[8:8+nameLen])]
		if !ok {
			return ErrPeer
		}
		s.nextFD++
		s.byFD[s.nextFD] = f
		s.peer.Reply(header([]uint64{0, s.nextFD, uint64(f.size)}, nil), false)
	case nfsRead:
		fd, off, n := getU64(req.Data, 0), int64(getU64(req.Data, 8)), int64(getU64(req.Data, 16))
		f, ok := s.byFD[fd]
		if !ok || !wire.Within(uint64(off), uint64(n), uint64(f.size)) {
			return ErrPeer
		}
		s.ini.Read(f.off+off, int(n), func(buf []byte, err error) { s.peer.answer(err, buf, true) })
	case nfsWrite:
		fd, off := getU64(req.Data, 0), int64(getU64(req.Data, 8))
		data := tail(req.Data, 16)
		f, ok := s.byFD[fd]
		if !ok || !wire.Within(uint64(off), uint64(len(data)), uint64(f.size)) {
			return ErrPeer
		}
		s.ini.Write(f.off+off, data, func(err error) { s.peer.answer(err, nil, false) })
	default:
		return ErrPeer
	}
	return nil
}

// NFSClient is the frontend-side stub.
type NFSClient struct{ client }

// NewNFSClient attaches a client on the frontend node.
func NewNFSClient(net *fabric.Net, node int, server *NFSServer) *NFSClient {
	return &NFSClient{client{
		peer:    NewPeer(net, fmt.Sprintf("nfs-client.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}, 0, nil),
		server:  server.Endpoint(),
		proto:   "nfs",
		perCall: nfsClientPerOp,
	}}
}

// Create makes a file of the given size.
func (c *NFSClient) Create(t *sim.Task, name string, size int64) error {
	_, err := c.call(t, nfsCreate, header([]uint64{uint64(len(name)), uint64(size)}, []byte(name)), false, 1)
	return err
}

// Open returns a file descriptor and the file size.
func (c *NFSClient) Open(t *sim.Task, name string) (fd uint64, size int64, err error) {
	r, err := c.call(t, nfsOpen, header([]uint64{uint64(len(name))}, []byte(name)), false, 3)
	if err != nil {
		return 0, 0, err
	}
	return getU64(r, 8), int64(getU64(r, 16)), nil
}

// Read returns n bytes at off.
func (c *NFSClient) Read(t *sim.Task, fd uint64, off int64, n int) ([]byte, error) {
	r, err := c.call(t, nfsRead, header([]uint64{fd, uint64(off), uint64(n)}, nil), false, 1)
	if err != nil {
		return nil, err
	}
	return r[8:], nil
}

// Write stores data at off. It copies data into its message, so the
// caller may reuse data once Write returns.
func (c *NFSClient) Write(t *sim.Task, fd uint64, off int64, data []byte) error {
	_, err := c.call(t, nfsWrite, header([]uint64{fd, uint64(off)}, data), true, 1)
	return err
}
