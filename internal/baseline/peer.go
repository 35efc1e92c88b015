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
	"fmt"

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
// token-matched request/response. A server's peer serves one request at
// a time, in arrival order, in kernel context: once a request has taken
// the server's processing time, the handler gets it, and it is in
// service until the handler or a later event answers it (Reply), or the
// handler refuses it with an error. Every baseline server is serial,
// like rCUDA's driver-call server that Figures 9 and 13 measure.
type Peer struct {
	net       *fabric.Net
	EP        *fabric.Endpoint
	nextToken uint64
	pending   map[uint64]pendingCall
	futures   sim.FreeList[sim.Future[[]byte]] // blocking Calls' waiters, recycled
	dec       *wire.Decoder
	tx        wire.Raw // the message being sent: Net.Send encodes it and keeps nothing

	serve   func(Request) error // nil for a client's peer: requests to it are dropped
	perOp   sim.Time            // a request's processing time before serve takes it
	waiting []Request           // requests not yet in service, oldest first
	cur     Request             // the request in service
	busy    bool

	// SendFailed counts replies whose requester vanished before the
	// response went out (observed, not silent — the baseline's
	// connection-oriented transports surface this at the sender too).
	SendFailed int
}

// pendingCall is a call waiting for its reply: where the request went,
// and what runs with the answer (CallThen) or waits for it (Call).
type pendingCall struct {
	dst  fabric.EndpointID
	then func([]byte, error)
	fut  *sim.Future[[]byte]
}

func (c pendingCall) settle(r []byte, err error) {
	if c.fut != nil {
		settle(c.fut, r, err)
	} else {
		c.then(r, err)
	}
}

// NewPeer attaches a baseline endpoint. A server's passes its handler
// and the processing time each request takes before the handler gets
// it; a client's passes 0 and nil.
func NewPeer(net *fabric.Net, name string, loc fabric.Location, perOp sim.Time, serve func(Request) error) *Peer {
	p := &Peer{
		net:     net,
		pending: make(map[uint64]pendingCall),
		dec:     wire.NewDecoder(),
		serve:   serve,
		perOp:   perOp,
	}
	p.EP = net.AttachHandler(name, loc, 0, p)
	return p
}

// Deliver implements fabric.Handler: a reply runs its call's
// continuation, a request queues for the handler. The decode borrows the
// frame, so the payload either keeps is copied out before the frame is
// released. A reply from an endpoint other than its call's destination
// is ignored: tokens are small counters, and any endpoint can echo one.
func (p *Peer) Deliver(f *fabric.Frame) {
	from := f.From
	m, err := p.dec.Decode(f.Bytes())
	raw, ok := m.(*wire.Raw)
	if err != nil || !ok {
		f.Release()
		return
	}
	kind, token := raw.Kind, raw.Token
	data := bytes.Clone(raw.Data) // the payload outlives the frame
	f.Release()
	if kind&replyBit != 0 {
		if c, ok := p.pending[token]; ok && c.dst == from {
			delete(p.pending, token)
			c.settle(data, nil)
		}
		return
	}
	if p.serve != nil {
		p.waiting = append(p.waiting, Request{From: from, Kind: kind, Token: token, Data: data}) // the queue grows to the most requests waiting at once
		p.next()
	}
}

// next puts the oldest request waiting in service, unless one is.
func (p *Peer) next() {
	if p.busy || len(p.waiting) == 0 {
		return
	}
	p.cur = p.waiting[0]
	p.waiting = p.waiting[:copy(p.waiting, p.waiting[1:])]
	p.busy = true
	p.net.Kernel().AfterCall(p.perOp, p)
}

// Fire implements sim.Callback: the request in service has taken its
// processing time, and the handler gets it.
func (p *Peer) Fire() {
	if err := p.serve(p.cur); err != nil {
		p.answer(err, nil, false)
	}
}

// Reply answers the request in service and puts the next in service. A
// reply to a requester that has already torn down its endpoint is
// counted, not silently dropped.
func (p *Peer) Reply(data []byte, isData bool) {
	req := p.cur
	p.tx = wire.Raw{Kind: req.Kind | replyBit, Token: req.Token, IsData: isData, Data: data}
	if !p.net.Send(p.EP.ID, req.From, &p.tx) {
		p.SendFailed++
	}
	p.cur, p.busy = Request{}, false
	p.next()
}

// answer replies with status 0 and payload, or with a bare failure
// status if err is set.
func (p *Peer) answer(err error, payload []byte, isData bool) {
	if err != nil {
		p.Reply(header([]uint64{1}, nil), false)
		return
	}
	p.Reply(header([]uint64{0}, payload), isData)
}

// CallThen starts an RPC to dst and returns; then runs in kernel context
// with the reply's payload, or at once with ErrPeer if the request
// cannot be sent.
func (p *Peer) CallThen(dst fabric.EndpointID, kind uint32, data []byte, isData bool, then func([]byte, error)) {
	p.start(pendingCall{dst: dst, then: then}, kind, data, isData)
}

// Call is CallThen for an application task: it blocks until the reply's
// payload is in.
func (p *Peer) Call(t *sim.Task, dst fabric.EndpointID, kind uint32, data []byte, isData bool) ([]byte, error) {
	f := p.futures.Get()
	p.start(pendingCall{dst: dst, fut: f}, kind, data, isData)
	r, err := f.Wait(t)
	f.Reset()
	p.futures.Put(f)
	return r, err
}

// start sends c's request and parks c for the reply.
func (p *Peer) start(c pendingCall, kind uint32, data []byte, isData bool) {
	p.nextToken++
	p.tx = wire.Raw{Kind: kind, Token: p.nextToken, IsData: isData, Data: data}
	if !p.net.Send(p.EP.ID, c.dst, &p.tx) {
		c.settle(nil, ErrPeer)
		return
	}
	p.pending[p.nextToken] = c
}

// settle resolves f with v, or fails it with err: the end of a
// continuation a task waits for.
func settle[T any](f *sim.Future[T], v T, err error) {
	if err != nil {
		f.Fail(err)
	} else {
		f.Set(v)
	}
}

// client is the calling side of a baseline protocol: a stub that
// spends perCall of CPU on each call before its round trip to server.
type client struct {
	peer    *Peer
	server  fabric.EndpointID
	proto   string // names the protocol in errors
	perCall sim.Time
}

// callThen sends server a request: then gets the reply if it succeeded
// with a header of words words, an error if not.
func (c *client) callThen(kind uint32, data []byte, isData bool, words int, then func([]byte, error)) {
	c.peer.CallThen(c.server, kind, data, isData, func(r []byte, err error) {
		if err == nil && (len(r) < 8*words || getU64(r, 0) != 0) {
			err = fmt.Errorf("%s: call %x failed", c.proto, kind)
		}
		then(r, err)
	})
}

// call is callThen for an application task, after the stub's time.
//
//fractos:ordered
func (c *client) call(t *sim.Task, kind uint32, data []byte, isData bool, words int) ([]byte, error) {
	t.Sleep(c.perCall)
	f := sim.NewFuture[[]byte]()
	c.callThen(kind, data, isData, words, func(r []byte, err error) { settle(f, r, err) })
	return f.Wait(t)
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
