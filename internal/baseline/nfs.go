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
func NewNFSServer(k *sim.Kernel, net *fabric.Net, node int, ini *NVMeoFInitiator) *NFSServer {
	s := &NFSServer{
		peer:  NewPeer(k, net, fmt.Sprintf("nfs-server.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}),
		ini:   ini,
		files: make(map[string]*nfsFile),
		byFD:  make(map[uint64]*nfsFile),
	}
	k.Spawn("nfs-server", s.serve)
	return s
}

// Endpoint returns the server's fabric address.
func (s *NFSServer) Endpoint() fabric.EndpointID { return s.peer.EP.ID }

func (s *NFSServer) serve(t *sim.Task) {
	for {
		req, ok := s.peer.Serve(t)
		if !ok {
			return
		}
		t.Sleep(nfsServerPerOp)
		switch req.Kind {
		case nfsCreate:
			nameLen, size := getU64(req.Data, 0), int64(getU64(req.Data, 8))
			if !wire.Within(16, nameLen, uint64(len(req.Data))) {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			name := string(req.Data[16 : 16+nameLen])
			if _, dup := s.files[name]; dup {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			off, err := s.ini.Alloc(t, size)
			if err != nil {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			s.files[name] = &nfsFile{name: name, off: off, size: size}
			s.peer.Reply(t, req, header([]uint64{0}, nil), false)
		case nfsOpen:
			nameLen := getU64(req.Data, 0)
			if !wire.Within(8, nameLen, uint64(len(req.Data))) {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			f, ok := s.files[string(req.Data[8:8+nameLen])]
			if !ok {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			s.nextFD++
			s.byFD[s.nextFD] = f
			s.peer.Reply(t, req, header([]uint64{0, s.nextFD, uint64(f.size)}, nil), false)
		case nfsRead:
			fd, off, n := getU64(req.Data, 0), int64(getU64(req.Data, 8)), int64(getU64(req.Data, 16))
			f, ok := s.byFD[fd]
			if !ok || !wire.Within(uint64(off), uint64(n), uint64(f.size)) {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			buf, err := s.ini.Read(t, f.off+off, int(n))
			if err != nil {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			s.peer.Reply(t, req, header([]uint64{0}, buf), true)
		case nfsWrite:
			fd, off := getU64(req.Data, 0), int64(getU64(req.Data, 8))
			data := tail(req.Data, 16)
			f, ok := s.byFD[fd]
			if !ok || !wire.Within(uint64(off), uint64(len(data)), uint64(f.size)) {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			if err := s.ini.Write(t, f.off+off, data); err != nil {
				s.peer.Reply(t, req, header([]uint64{1}, nil), false)
				continue
			}
			s.peer.Reply(t, req, header([]uint64{0}, nil), false)
		}
	}
}

// NFSClient is the frontend-side stub.
type NFSClient struct {
	peer   *Peer
	server fabric.EndpointID
}

// NewNFSClient attaches a client on the frontend node.
func NewNFSClient(k *sim.Kernel, net *fabric.Net, node int, server *NFSServer) *NFSClient {
	return &NFSClient{
		peer:   NewPeer(k, net, fmt.Sprintf("nfs-client.n%d", node), fabric.Location{Node: node, Domain: fabric.Host}),
		server: server.Endpoint(),
	}
}

// call is one NFS RPC: the stub's marshalling, then the round trip.
//
//fractos:ordered
func (c *NFSClient) call(t *sim.Task, kind uint32, data []byte, isData bool) ([]byte, error) {
	t.Sleep(nfsClientPerOp)
	r, err := c.peer.Call(t, c.server, kind, data, isData)
	if err != nil {
		return nil, err
	}
	if getU64(r.Data, 0) != 0 {
		return nil, fmt.Errorf("nfs: call %x failed", kind)
	}
	return r.Data, nil
}

// Create makes a file of the given size.
func (c *NFSClient) Create(t *sim.Task, name string, size int64) error {
	_, err := c.call(t, nfsCreate, header([]uint64{uint64(len(name)), uint64(size)}, []byte(name)), false)
	return err
}

// Open returns a file descriptor and the file size.
func (c *NFSClient) Open(t *sim.Task, name string) (fd uint64, size int64, err error) {
	r, err := c.call(t, nfsOpen, header([]uint64{uint64(len(name))}, []byte(name)), false)
	if err != nil {
		return 0, 0, err
	}
	return getU64(r, 8), int64(getU64(r, 16)), nil
}

// Read returns n bytes at off.
func (c *NFSClient) Read(t *sim.Task, fd uint64, off int64, n int) ([]byte, error) {
	r, err := c.call(t, nfsRead, header([]uint64{fd, uint64(off), uint64(n)}, nil), false)
	if err != nil {
		return nil, err
	}
	return r[8:], nil
}

// Write stores data at off.
func (c *NFSClient) Write(t *sim.Task, fd uint64, off int64, data []byte) error {
	_, err := c.call(t, nfsWrite, header([]uint64{fd, uint64(off)}, data), true)
	return err
}
