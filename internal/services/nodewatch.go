package services

import (
	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// NodeWatch models the external monitoring service (Zookeeper in §3.6)
// that detects node and Controller failures and translates them into
// the FractOS protocol actions: fencing suspected Controllers,
// rebooting them under a fresh epoch, and re-announcing that epoch.
//
// It is a heartbeat detector running in kernel context: a fabric
// Handler on node 0 driven by one round timer. Each round pings every
// Controller (wire.WatchPing → wire.WatchPong) and closes Every later.
// A Controller that misses Suspect consecutive rounds is fenced (Crash
// — modeling the out-of-band power-off the paper's monitor performs so
// a partitioned-but-alive instance cannot act on stale state) and, if
// RebootAfter is set, rebooted under a fresh epoch. Recovery is
// observed through the pong's epoch and triggers a re-announce so
// peers that lost the reboot's CtrlEpoch frame still converge.
//
// The detector draws no randomness and uses only virtual time, so runs
// are deterministic; suspicion latency is bounded by
// Every × (Suspect + 1).
type NodeWatch struct {
	cl *core.Cluster

	cfg  WatchConfig
	ep   *fabric.Endpoint
	dec  *wire.Decoder
	byID map[cap.ControllerID]int

	seq     uint64
	got     []bool // answered in the open round
	missed  []int
	down    []bool
	stopped bool

	subs []func(WatchEvent)
}

// WatchConfig parameterizes the heartbeat failure detector.
type WatchConfig struct {
	// Every is the probe period. 0 means DefaultWatchEvery.
	Every sim.Time
	// Suspect is the number of consecutive missed pongs after which a
	// Controller is declared failed and fenced. 0 means
	// DefaultWatchSuspect.
	Suspect int
	// RebootAfter, when >0, reboots a fenced Controller (new epoch,
	// announced to all peers) this long after fencing. 0 disables
	// automatic reboot.
	RebootAfter sim.Time
}

// Defaults for WatchConfig's zero fields.
const (
	DefaultWatchEvery   = 10 * sim.Time(1000*1000) // 10 ms
	DefaultWatchSuspect = 3
)

// WatchEventKind classifies detector transitions.
type WatchEventKind uint8

const (
	// WatchSuspect: a Controller missed a round (missed count in Aux).
	WatchSuspect WatchEventKind = iota
	// WatchFenced: the suspicion threshold was reached; the Controller
	// was crashed (fenced) by the monitor.
	WatchFenced
	// WatchRebooted: the monitor rebooted a fenced Controller.
	WatchRebooted
	// WatchRecovered: a previously fenced Controller answered a probe
	// again (its new epoch is in Epoch).
	WatchRecovered
)

func (k WatchEventKind) String() string {
	switch k {
	case WatchSuspect:
		return "suspect"
	case WatchFenced:
		return "fenced"
	case WatchRebooted:
		return "rebooted"
	case WatchRecovered:
		return "recovered"
	}
	return "watch(?)"
}

// WatchEvent is one detector transition, as subscribers see it.
type WatchEvent struct {
	At    sim.Time
	Kind  WatchEventKind
	Ctrl  cap.ControllerID
	Epoch cap.Epoch // valid for WatchRecovered
	Aux   int       // missed count for WatchSuspect
}

// StartNodeWatch attaches the monitor to the fabric on node 0 and
// opens its first round. Call Stop when the workload is done so the
// kernel's event loop can drain.
func StartNodeWatch(cl *core.Cluster, cfg WatchConfig) *NodeWatch {
	if cfg.Every <= 0 {
		cfg.Every = DefaultWatchEvery
	}
	if cfg.Suspect <= 0 {
		cfg.Suspect = DefaultWatchSuspect
	}
	n := len(cl.Ctrls)
	w := &NodeWatch{
		cl:     cl,
		cfg:    cfg,
		dec:    wire.NewDecoder(),
		byID:   make(map[cap.ControllerID]int, n),
		got:    make([]bool, n),
		missed: make([]int, n),
		down:   make([]bool, n),
	}
	for i, c := range cl.Ctrls {
		w.byID[c.ID()] = i
	}
	w.ep = cl.Net.AttachHandler("nodewatch", fabric.Location{Node: 0, Domain: fabric.Host}, 0, w)
	w.open()
	return w
}

// Stop ends the heartbeat when the current round closes. Idempotent.
func (w *NodeWatch) Stop() { w.stopped = true }

// NodeOf maps a ControllerID from a WatchEvent to the node the
// Controller is deployed on.
func (w *NodeWatch) NodeOf(id cap.ControllerID) (int, bool) {
	return nodeOfCtrl(w.cl, id)
}

// Subscribe registers fn to run synchronously, in kernel context, on
// every detector transition. Multiple subscribers fire in subscription
// order (the registry's fence-pruning and an autoscaler's repair can
// both observe one detector).
func (w *NodeWatch) Subscribe(fn func(WatchEvent)) {
	w.subs = append(w.subs, fn)
}

func (w *NodeWatch) emit(e WatchEvent) {
	for _, fn := range w.subs {
		fn(e)
	}
}

// open starts a round: ping every Controller and arm the timer that
// closes the round Every later. Pings to a fenced instance fail
// locally (its endpoint is disconnected) and are ignored until it
// answers again.
func (w *NodeWatch) open() {
	w.seq++
	clear(w.got)
	for _, c := range w.cl.Ctrls {
		// A false Send means the endpoint is torn down (fenced or
		// crashed) — for the failure detector that is the same
		// evidence as a missed pong, so the boolean is deliberately
		// not branched on.
		//fractos:mustuse-ok torn-down destination is silence by design for the detector
		w.cl.Net.Send(w.ep.ID, c.EndpointID(), &wire.WatchPing{Seq: w.seq})
	}
	w.cl.K.AfterCall(w.cfg.Every, w)
}

// Deliver implements fabric.Handler: a pong of the open round marks
// its Controller as answered and resets its misses. A pong of an
// earlier round (delayed or duplicated) is ignored.
func (w *NodeWatch) Deliver(f *fabric.Frame) {
	m, err := w.dec.Decode(f.Bytes())
	f.Release() // a pong's fields are integers: nothing borrows the frame
	pong, ok := m.(*wire.WatchPong)
	if err != nil || !ok || pong.Seq != w.seq {
		return
	}
	i, known := w.byID[pong.Ctrl]
	if !known {
		return
	}
	w.got[i] = true
	w.missed[i] = 0
	if w.down[i] {
		w.down[i] = false
		w.emit(WatchEvent{At: w.cl.K.Now(), Kind: WatchRecovered, Ctrl: pong.Ctrl, Epoch: pong.Epoch})
		// The reboot's own CtrlEpoch broadcast may have been lost on
		// the lossy fabric; re-announce so peers fence stale
		// capabilities (AnnounceEpoch is idempotent).
		w.cl.Ctrls[i].AnnounceEpoch()
	}
}

// Fire is the round timer: it closes the round — a Controller that did
// not answer is suspected, and fenced at Suspect misses in a row — and
// then opens the next one, or, after Stop, detaches the monitor.
func (w *NodeWatch) Fire() {
	now := w.cl.K.Now()
	for i, c := range w.cl.Ctrls {
		if w.got[i] || w.down[i] {
			continue
		}
		w.missed[i]++
		w.emit(WatchEvent{At: now, Kind: WatchSuspect, Ctrl: c.ID(), Aux: w.missed[i]})
		if w.missed[i] < w.cfg.Suspect {
			continue
		}
		w.down[i] = true
		w.missed[i] = 0
		w.emit(WatchEvent{At: now, Kind: WatchFenced, Ctrl: c.ID()})
		c.Crash() // out-of-band fence; idempotent if already down
		if w.cfg.RebootAfter > 0 {
			w.cl.K.After(w.cfg.RebootAfter, func() {
				w.emit(WatchEvent{At: w.cl.K.Now(), Kind: WatchRebooted, Ctrl: c.ID()})
				c.Reboot()
			})
		}
	}
	if w.stopped {
		w.cl.Net.Disconnect(w.ep.ID)
		return
	}
	w.open()
}
