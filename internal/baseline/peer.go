// Package baseline implements the existing disaggregation technologies
// the paper compares against (§6): NVMe-over-Fabrics block remoting,
// an NFS-like file server, and rCUDA-style GPU driver-call remoting.
//
// The baselines share the simulated fabric with FractOS but speak
// their own raw protocols with centralized application control: all
// data funnels through the node issuing the calls (the star topology
// of Figure 2), which is exactly the structure whose cost FractOS
// eliminates.
package baseline

import (
	"bytes"
	"encoding/binary"
	"errors"

	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// ErrPeer is returned when a baseline RPC fails.
var ErrPeer = errors.New("baseline: peer call failed")

// replyBit marks a Raw message as a response.
const replyBit = 1 << 31

// Request is an incoming baseline RPC at a server.
type Request struct {
	From  fabric.EndpointID
	Kind  uint32
	Token uint64
	Data  []byte
}

// Peer is a fabric endpoint speaking the baseline Raw protocol:
// token-matched request/response plus a server queue.
type Peer struct {
	net       *fabric.Net
	EP        *fabric.Endpoint
	nextToken uint64
	pending   map[uint64]*sim.Future[*wire.Raw]
	incoming  *sim.Chan[Request]
	dec       *wire.Decoder
	// SendFailed counts replies whose requester vanished before the
	// response went out (observed, not silent — the baseline's
	// connection-oriented transports surface this at the sender too).
	SendFailed int
}

// NewPeer attaches a baseline endpoint.
func NewPeer(k *sim.Kernel, net *fabric.Net, name string, loc fabric.Location) *Peer {
	p := &Peer{
		net:      net,
		pending:  make(map[uint64]*sim.Future[*wire.Raw]),
		incoming: sim.NewChan[Request](k, name+".req", 0),
		dec:      wire.NewDecoder(),
	}
	p.EP = net.AttachHandler(name, loc, 0, p)
	return p
}

// Deliver implements fabric.Handler: replies resolve calls, requests
// queue. The decode borrows the frame, so the payload either keeps is
// copied out before the frame is released.
//
//fractos:hotpath
func (p *Peer) Deliver(f *fabric.Frame) {
	from := f.From
	m, err := p.dec.Decode(f.Bytes())
	raw, ok := m.(*wire.Raw)
	if err != nil || !ok {
		f.Release()
		return
	}
	data := bytes.Clone(raw.Data) // fractos:alloc-ok the payload outlives the frame
	f.Release()
	if raw.Kind&replyBit != 0 {
		if fut, ok := p.pending[raw.Token]; ok {
			delete(p.pending, raw.Token)
			reply := *raw // fractos:alloc-ok the caller keeps the reply
			reply.Data = data
			fut.Set(&reply)
		}
		return
	}
	p.incoming.TrySend(Request{From: from, Kind: raw.Kind, Token: raw.Token, Data: data})
}

// Call performs a synchronous RPC to dst.
func (p *Peer) Call(t *sim.Task, dst fabric.EndpointID, kind uint32, data []byte, isData bool) (*wire.Raw, error) {
	raw, err := p.CallAsync(dst, kind, data, isData).Wait(t)
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// CallAsync starts an RPC and returns the future of its response.
func (p *Peer) CallAsync(dst fabric.EndpointID, kind uint32, data []byte, isData bool) *sim.Future[*wire.Raw] {
	f := sim.NewFuture[*wire.Raw]()
	p.nextToken++
	token := p.nextToken
	p.pending[token] = f
	if !p.net.Send(p.EP.ID, dst, &wire.Raw{Kind: kind, Token: token, IsData: isData, Data: data}) {
		delete(p.pending, token)
		f.Fail(ErrPeer)
	}
	return f
}

// Serve blocks until the next incoming request.
func (p *Peer) Serve(t *sim.Task) (Request, bool) {
	return p.incoming.Recv(t)
}

// Reply answers a request. A reply to a requester that has already
// torn down its endpoint is counted, not silently dropped.
func (p *Peer) Reply(t *sim.Task, req Request, data []byte, isData bool) {
	if !p.net.Send(p.EP.ID, req.From, &wire.Raw{
		Kind: req.Kind | replyBit, Token: req.Token, IsData: isData, Data: data,
	}) {
		p.SendFailed++
	}
}

// u64 little-endian helpers for baseline payload headers.
func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
func getU64(b []byte, off int) uint64 {
	if off+8 > len(b) {
		return 0
	}
	return binary.LittleEndian.Uint64(b[off:])
}

// tail is b past its first off bytes, empty when b is shorter.
func tail(b []byte, off int) []byte { return b[min(off, len(b)):] }

// header builds an n-word uint64 header followed by payload.
func header(words []uint64, payload []byte) []byte {
	b := make([]byte, 8*len(words)+len(payload))
	for i, w := range words {
		putU64(b, 8*i, w)
	}
	copy(b[8*len(words):], payload)
	return b
}
