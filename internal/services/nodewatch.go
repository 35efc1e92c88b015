package services

import (
	"fmt"

	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// NodeWatch models the external monitoring service (Zookeeper in §3.6)
// that detects node and Controller failures and translates them into
// the FractOS protocol actions: failing a Controller's Processes,
// fencing suspected Controllers, and announcing epochs after reboots.
//
// It operates in two modes:
//
//   - Driven: failure-injection code calls NodeFailed /
//     ControllerFailed / ControllerRecovered explicitly (the PR-3
//     behavior, still used by targeted tests).
//
//   - Heartbeat: StartHeartbeat attaches the monitor to the fabric and
//     spawns a prober that pings every Controller each round
//     (wire.WatchPing → wire.WatchPong). A Controller that misses
//     Suspect consecutive rounds is fenced (Crash — modeling the
//     out-of-band power-off the paper's monitor performs so a
//     partitioned-but-alive instance cannot act on stale state) and,
//     if RebootAfter is set, rebooted under a fresh epoch. Recovery is
//     observed through the pong's epoch and triggers a re-announce so
//     peers that lost the reboot's CtrlEpoch frame still converge.
//
// The prober draws no randomness and uses only virtual time, so runs
// are deterministic; suspicion latency is bounded by
// Every × (Suspect + 1).
type NodeWatch struct {
	cl *core.Cluster

	cfg  WatchConfig
	ep   *fabric.Endpoint
	byID map[cap.ControllerID]int

	seq     uint64
	missed  []int
	down    []bool
	stopped bool

	events []WatchEvent
	subs   []func(WatchEvent)
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
	// automatic reboot; the driver may still call ControllerRecovered.
	RebootAfter sim.Time
	// OnEvent, when non-nil, is invoked synchronously for every
	// detector transition (suspicion, fence, reboot, recovery).
	OnEvent func(WatchEvent)
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

// WatchEvent is one detector transition, recorded for tests and logs.
type WatchEvent struct {
	At    sim.Time
	Kind  WatchEventKind
	Ctrl  cap.ControllerID
	Epoch cap.Epoch // valid for WatchRecovered
	Aux   int       // missed count for WatchSuspect
}

func (e WatchEvent) String() string {
	return fmt.Sprintf("%d %s ctrl=%d epoch=%d aux=%d", e.At, e.Kind, e.Ctrl, e.Epoch, e.Aux)
}

// NewNodeWatch creates the monitor for a cluster.
func NewNodeWatch(cl *core.Cluster) *NodeWatch {
	return &NodeWatch{cl: cl}
}

// NodeFailed reports a whole-node failure: the node's Controller is
// informed so it fails every Process running there (§3.6: "After a
// node failure, we inform the corresponding Controller to fail all
// Processes running in it"). Controllers on other nodes are untouched.
func (w *NodeWatch) NodeFailed(node int, pids []cap.ProcID) {
	ctrl := w.cl.CtrlFor(node)
	for _, pid := range pids {
		ctrl.FailProcess(pid)
	}
}

// ControllerFailed reports a Controller crash: all its Processes are
// considered failed; on reboot the new epoch is announced and every
// capability minted under the old epoch becomes stale (§3.6).
func (w *NodeWatch) ControllerFailed(node int) {
	w.cl.CtrlFor(node).Crash()
}

// ControllerRecovered reboots a crashed Controller and broadcasts its
// new epoch.
func (w *NodeWatch) ControllerRecovered(node int) {
	w.cl.CtrlFor(node).Reboot()
}

// Events returns the transitions recorded since StartHeartbeat.
func (w *NodeWatch) Events() []WatchEvent { return w.events }

// StartHeartbeat attaches the monitor to the fabric on node 0 and
// spawns the probing task. Call Stop when the workload is done so the
// kernel's event loop can drain.
func (w *NodeWatch) StartHeartbeat(cfg WatchConfig) {
	if cfg.Every <= 0 {
		cfg.Every = DefaultWatchEvery
	}
	if cfg.Suspect <= 0 {
		cfg.Suspect = DefaultWatchSuspect
	}
	w.cfg = cfg
	w.ep = w.cl.Net.Attach("nodewatch", fabric.Location{Node: 0, Domain: fabric.Host}, 0)
	w.byID = make(map[cap.ControllerID]int, len(w.cl.Ctrls))
	for i, c := range w.cl.Ctrls {
		w.byID[c.ID()] = i
	}
	w.missed = make([]int, len(w.cl.Ctrls))
	w.down = make([]bool, len(w.cl.Ctrls))
	w.cl.K.Spawn("nodewatch", w.probe)
}

// Stop ends the heartbeat after the current round. Idempotent.
func (w *NodeWatch) Stop() { w.stopped = true }

// NodeOf maps a ControllerID from a WatchEvent to the node the
// Controller is deployed on.
func (w *NodeWatch) NodeOf(id cap.ControllerID) (int, bool) {
	return nodeOfCtrl(w.cl, id)
}

// Subscribe registers fn to run synchronously on every detector
// transition, after WatchConfig.OnEvent. Multiple subscribers fire in
// subscription order (the registry's fence-pruning and an autoscaler's
// repair can both observe one detector).
func (w *NodeWatch) Subscribe(fn func(WatchEvent)) {
	w.subs = append(w.subs, fn)
}

func (w *NodeWatch) emit(e WatchEvent) {
	w.events = append(w.events, e)
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(e)
	}
	for _, fn := range w.subs {
		fn(e)
	}
}

// probe runs one detector round per Every: ping every Controller, then
// collect pongs until the round closes. Misses accumulate per
// Controller and reset on any pong; pings to a fenced instance fail
// locally (its endpoint is disconnected) and are ignored until it
// answers again.
func (w *NodeWatch) probe(t *sim.Task) {
	for !w.stopped {
		w.seq++
		got := make([]bool, len(w.cl.Ctrls))
		for _, c := range w.cl.Ctrls {
			// A false Send means the endpoint is torn down (fenced or
			// crashed) — for the failure detector that is the same
			// evidence as a missed pong, so the boolean is deliberately
			// not branched on.
			//fractos:mustuse-ok torn-down destination is silence by design for the prober
			w.cl.Net.Send(w.ep.ID, c.EndpointID(), &wire.WatchPing{Seq: w.seq})
		}
		deadline := t.Now() + w.cfg.Every
		for {
			remain := deadline - t.Now()
			if remain <= 0 {
				break
			}
			d, ok := w.ep.Inbox.RecvTimeout(t, remain)
			if !ok {
				break
			}
			pong, isPong := d.Msg.(*wire.WatchPong)
			if !isPong || pong.Seq != w.seq {
				continue // stale (delayed or duplicated) round
			}
			i, known := w.byID[pong.Ctrl]
			if !known {
				continue
			}
			got[i] = true
			w.missed[i] = 0
			if w.down[i] {
				w.down[i] = false
				w.emit(WatchEvent{At: t.Now(), Kind: WatchRecovered, Ctrl: pong.Ctrl, Epoch: pong.Epoch})
				// The reboot's own CtrlEpoch broadcast may have been
				// lost on the lossy fabric; re-announce so peers fence
				// stale capabilities (AnnounceEpoch is idempotent).
				w.cl.Ctrls[i].AnnounceEpoch()
			}
		}
		for i, c := range w.cl.Ctrls {
			if got[i] || w.down[i] {
				continue
			}
			w.missed[i]++
			w.emit(WatchEvent{At: t.Now(), Kind: WatchSuspect, Ctrl: c.ID(), Aux: w.missed[i]})
			if w.missed[i] < w.cfg.Suspect {
				continue
			}
			w.down[i] = true
			w.missed[i] = 0
			w.emit(WatchEvent{At: t.Now(), Kind: WatchFenced, Ctrl: c.ID()})
			c.Crash() // out-of-band fence; idempotent if already down
			if w.cfg.RebootAfter > 0 {
				ci := c
				id := c.ID()
				w.cl.K.After(w.cfg.RebootAfter, func() {
					w.emit(WatchEvent{At: w.cl.K.Now(), Kind: WatchRebooted, Ctrl: id})
					ci.Reboot()
				})
			}
		}
	}
	w.cl.Net.Disconnect(w.ep.ID)
}
