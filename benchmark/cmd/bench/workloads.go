package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"fractos/internal/app/faceverify"
	"fractos/internal/assert"
	"fractos/internal/cap"
	"fractos/internal/core"
	"fractos/internal/fabric"
	"fractos/internal/proc"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
	"fractos/internal/wire"
)

// runner is one deployed workload instance. The harness in run.go owns
// the loop (closed or open), the clocks and the counters; a runner only
// says what cluster it needs, what one request does, and whether the
// answer was right.
type runner interface {
	spec() testbed.Spec
	// start attaches the benchmark's own Processes and generates the
	// seeded inputs. It runs inside the simulation, after the Spec's
	// services deployed, and is part of set-up.
	start(tk *sim.Task, d *testbed.Deployment)
	// request issues request i from a client and checks its output.
	// Inputs are a pure function of (seed, i).
	request(t *sim.Task, client, i int) error
	// counters returns the cumulative raw counters of the layers only
	// this workload reaches (devices, the balancer); nil if none.
	counters() map[string]float64
	// verify runs the end-of-run oracle and returns the number of
	// violations. lat[i] >= 0 iff request i succeeded.
	verify(lat []sim.Time) int
}

// plain is embedded by runners that reach no layer with counters of
// its own and need no end-of-run oracle.
type plain struct{}

func (plain) counters() map[string]float64 { return nil }
func (plain) verify([]sim.Time) int        { return 0 }

// errWrong marks a request that completed but answered wrongly.
var errWrong = errors.New("wrong output")

// workload is one named traffic mix. rate sizes the run: a segment is
// rate × seconds / 7 requests, so the request count is the same on
// every commit and virtual metrics repeat exactly.
type workload struct {
	name, why string
	rate      int // timed requests per second of --seconds, measured on the 2-core reference box
	clients   int // closed-loop clients; 0 means open loop
	// think is the upper bound of a seeded, uniformly drawn pause a
	// closed-loop client takes before each request, outside the timed
	// interval. It is a few per cent of the request latency: without
	// it clients that re-issue in zero time lock into one repeating
	// schedule and every request of every seed takes exactly as long.
	think    sim.Time
	openRate float64 // open loop: Poisson arrivals per virtual second in the timed phase
	new      func(seed int64) runner
	// Layer-separation gates over the per-layer metrics of a traced run.
	zero, positive []string
	// extras runs the workload's additional untimed phases in a traced
	// run (route-open's rate ladder, faceverify's baseline twin).
	extras func(main *measured, out map[string]float64) []string
}

const inputTable = 1 << 16 // generated inputs repeat after this many requests

var workloads = []*workload{
	{
		name: "invoke-null", rate: 21000, clients: 4, think: 2 * time.Microsecond,
		why:  "closed loop, 4 clients, cross-node null Request calls on a reliable fabric: the control path (proc, core, cap, wire, fabric messages) does all the work; RDMA, route and devices do none",
		new:  func(seed int64) runner { return &invoke{seed: seed} },
		zero: []string{"fabric.rdma_ops_per_req", "core.retransmits_per_kreq", "core.dedup_hits_per_kreq", "fabric.dropped_per_kreq", "route.calls", "device.gpu_launches_per_req"},
	},
	{
		name: "invoke-lossy", rate: 19000, clients: 4, think: 2 * time.Microsecond,
		why:      "invoke-null with 1 % cross-node frame loss: arms retransmit timers, the at-most-once cache and epoch checks; a resilience change must move this and leave invoke-null alone",
		new:      func(seed int64) runner { return &invoke{seed: seed, lossy: true} },
		zero:     []string{"fabric.rdma_ops_per_req", "route.calls", "device.gpu_launches_per_req"},
		positive: []string{"core.retransmits_per_kreq", "core.dedup_hits_per_kreq", "fabric.dropped_per_kreq"},
	},
	{
		name: "copy-bulk", rate: 12500, clients: 4,
		why:      "closed loop, 4 clients, cross-node memory_copy of 4 KiB/64 KiB/1 MiB (50/35/15 %), half push half pull: RDMA, link queueing and bounce-buffer chunking dominate; wire, cap, proc are negligible",
		new:      func(seed int64) runner { return &copyBulk{seed: seed} },
		zero:     []string{"core.retransmits_per_kreq", "route.calls", "device.gpu_launches_per_req"},
		positive: []string{"fabric.rdma_ops_per_req", "fabric.virt_push_p50_us", "fabric.virt_pull_p50_us"},
	},
	{
		name: "faceverify", rate: 3600, clients: 4, think: 20 * time.Microsecond,
		why:      "closed loop, 4 clients, the paper's face-verification app (GPU, NVMe, FS adaptors, continuation chains): device service dominates virtual time; the only workload with a paper reference",
		new:      func(seed int64) runner { return &faceVerify{seed: seed} },
		zero:     []string{"core.retransmits_per_kreq", "route.calls"},
		positive: []string{"device.gpu_launches_per_req", "device.nvme_reads_per_req", "fabric.rdma_ops_per_req"},
		extras:   faceVerifyExtras,
	},
	{
		name: "route-open", rate: 15000, openRate: 0.90 * routeCapacity,
		why:      "open loop, Poisson arrivals at 90 % of capacity on 16 replicas behind registry and least-loaded balancer: queues and admission control do the work; latency rises before throughput saturates",
		new:      func(seed int64) runner { return &routeOpen{seed: seed} },
		zero:     []string{"fabric.rdma_ops_per_req", "core.retransmits_per_kreq", "device.gpu_launches_per_req"},
		positive: []string{"route.calls", "route.resolves"},
		extras:   routeExtras,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- invoke-null / invoke-lossy ------------------------------------

const (
	maxClients = 4
	echoTag    = 1
	replySlot  = 15
)

// invoke is N client Processes on node 0 calling one echo Process on
// node 1. The request carries its sequence number and the reply must
// bring it back.
type invoke struct {
	plain
	seed    int64
	lossy   bool
	clients []*proc.Process
	reqs    []proc.Cap
}

func (v *invoke) spec() testbed.Spec {
	s := testbed.Spec{Nodes: 2, Seed: v.seed}
	if v.lossy {
		s.Chaos = fabric.Faults{Drop: 0.01, Seed: v.seed*7919 + 1}
	}
	return s
}

func (v *invoke) start(tk *sim.Task, d *testbed.Deployment) {
	srv := d.Attach(1, "echo-server", 0)
	root, err := srv.RequestCreate(tk, echoTag, nil, nil)
	assert.NoErr(err, "bench: echo request")
	for c := 0; c < maxClients; c++ {
		p := d.Attach(0, fmt.Sprintf("client-%d", c), 0)
		creq, err := proc.GrantCap(srv, root, p)
		assert.NoErr(err, "bench: grant echo request")
		v.clients = append(v.clients, p)
		v.reqs = append(v.reqs, creq)
	}
	d.Spawn("echo-loop", func(t *sim.Task) {
		for {
			dv, ok := srv.Receive(t)
			if !ok {
				return
			}
			if rep, ok := dv.Cap(replySlot); ok {
				// A failed reply surfaces at the caller (it never
				// completes or completes with an error), which is
				// where the run counts it.
				_ = srv.Invoke(t, rep, []wire.ImmArg{proc.U64Arg(0, dv.U64(0))}, nil)
			}
			dv.Done()
		}
	})
}

func (v *invoke) request(t *sim.Task, client, i int) error {
	seq := uint64(i) + 1
	dv, err := v.clients[client].Call(t, v.reqs[client], []wire.ImmArg{proc.U64Arg(0, seq)}, nil, replySlot)
	if err != nil {
		return err
	}
	if dv.U64(0) != seq {
		return errWrong
	}
	return nil
}

// ---- copy-bulk -----------------------------------------------------

var copySizes = [3]int{4 << 10, 64 << 10, 1 << 20}

const copyRegion = 1 << 20 // one source or destination buffer

type copyOp struct {
	class uint8 // index into copySizes
	push  bool
}

// copyBulk is N client Processes on node 0 copying to and from one
// passive Process on node 1. Each client owns a source and a
// destination buffer on both sides; every copy stamps its sequence
// number at both ends of the source and finds it at the destination.
type copyBulk struct {
	plain
	seed   int64
	mix    []copyOp
	remote *proc.Process
	cl     []copyClient
}

type copyClient struct {
	p                      *proc.Process
	lsrc, ldst, rsrc, rdst [3]proc.Cap
	rbase                  int // this client's region pair in the remote arena
}

func (b *copyBulk) spec() testbed.Spec { return testbed.Spec{Nodes: 2, Seed: b.seed} }

func (b *copyBulk) start(tk *sim.Task, d *testbed.Deployment) {
	rng := testbed.Rand(b.seed)
	b.mix = make([]copyOp, inputTable)
	for i := range b.mix {
		var class uint8
		switch u := rng.Float64(); {
		case u < 0.50:
			class = 0
		case u < 0.85:
			class = 1
		default:
			class = 2
		}
		b.mix[i] = copyOp{class: class, push: rng.Intn(2) == 0}
	}
	b.remote = d.Attach(1, "copy-remote", maxClients*2*copyRegion)
	rng.Read(b.remote.Arena())
	for c := 0; c < maxClients; c++ {
		p := d.Attach(0, fmt.Sprintf("client-%d", c), 2*copyRegion)
		rng.Read(p.Arena()[:copyRegion])
		cc := copyClient{p: p, rbase: c * 2 * copyRegion}
		for k, size := range copySizes {
			var err error
			cc.lsrc[k], err = p.MemoryCreate(tk, 0, uint64(size), cap.MemRights)
			assert.NoErr(err, "bench: local source")
			cc.ldst[k], err = p.MemoryCreate(tk, copyRegion, uint64(size), cap.MemRights)
			assert.NoErr(err, "bench: local destination")
			rs, err := b.remote.MemoryCreate(tk, uint64(cc.rbase), uint64(size), cap.MemRights)
			assert.NoErr(err, "bench: remote source")
			cc.rsrc[k], err = proc.GrantCap(b.remote, rs, p)
			assert.NoErr(err, "bench: grant remote source")
			rd, err := b.remote.MemoryCreate(tk, uint64(cc.rbase+copyRegion), uint64(size), cap.MemRights)
			assert.NoErr(err, "bench: remote destination")
			cc.rdst[k], err = proc.GrantCap(b.remote, rd, p)
			assert.NoErr(err, "bench: grant remote destination")
		}
		b.cl = append(b.cl, cc)
	}
}

func (b *copyBulk) op(i int) copyOp { return b.mix[i%len(b.mix)] }

func (b *copyBulk) request(t *sim.Task, client, i int) error {
	op := b.op(i)
	size := copySizes[op.class]
	cc := &b.cl[client]
	local, remote := cc.p.Arena(), b.remote.Arena()
	var src, dst []byte
	var err error
	if op.push {
		src, dst = local[:size], remote[cc.rbase+copyRegion:][:size]
		stamp(src, uint64(i)+1)
		err = cc.p.MemoryCopy(t, cc.lsrc[op.class], cc.rdst[op.class])
	} else {
		src, dst = remote[cc.rbase:][:size], local[copyRegion:][:size]
		stamp(src, uint64(i)+1)
		err = cc.p.MemoryCopy(t, cc.rsrc[op.class], cc.ldst[op.class])
	}
	if err != nil {
		return err
	}
	// Both stamps and a sample of the seeded pattern between them.
	mid := size / 2
	if !stamped(dst, uint64(i)+1) || dst[mid] != src[mid] || dst[mid+size/4] != src[mid+size/4] {
		return errWrong
	}
	return nil
}

func stamp(b []byte, v uint64) {
	binary.LittleEndian.PutUint64(b, v)
	binary.LittleEndian.PutUint64(b[len(b)-8:], v)
}

func stamped(b []byte, v uint64) bool {
	return binary.LittleEndian.Uint64(b) == v && binary.LittleEndian.Uint64(b[len(b)-8:]) == v
}

// ---- faceverify ----------------------------------------------------

const (
	fvBatch    = 32
	fvFiles    = 64
	fvSlots    = 4
	fvVariants = 2 // requests generated per database file
)

// faceVerify is the paper's §6.5 application: every request names one
// of 64 database files at random, so the NVMe read-ahead never helps.
type faceVerify struct {
	plain
	seed     int64
	baseline bool
	fv       *stacks.FaceVerify
	pool     []*faceverify.Request
	order    []uint16
}

func (f *faceVerify) spec() testbed.Spec {
	f.fv = &stacks.FaceVerify{
		Cfg:      faceverify.Config{Batch: fvBatch, Files: fvFiles, Slots: fvSlots, Seed: f.seed + 1},
		Baseline: f.baseline,
	}
	return testbed.Spec{Nodes: 4, Placement: core.CtrlOnCPU, Seed: f.seed, Services: []testbed.Service{f.fv}}
}

func (f *faceVerify) start(tk *sim.Task, d *testbed.Deployment) {
	rng := testbed.Rand(f.seed)
	for v := 0; v < fvVariants; v++ {
		for file := 0; file < fvFiles; file++ {
			f.pool = append(f.pool, faceverify.MakeRequest(f.fv.DB, file, fvBatch, rng))
		}
	}
	f.order = make([]uint16, inputTable)
	for i := range f.order {
		f.order[i] = uint16(rng.Intn(len(f.pool)))
	}
}

func (f *faceVerify) request(t *sim.Task, client, i int) error {
	r := f.pool[f.order[i%len(f.order)]]
	out, err := f.fv.Verify(t, r)
	if err != nil {
		return err
	}
	if !r.CheckResults(out) {
		return errWrong
	}
	return nil
}

func (f *faceVerify) counters() map[string]float64 {
	if f.baseline {
		return nil
	}
	gpu, ssd := f.fv.App.GPUDev, f.fv.App.NVMeDev
	return map[string]float64{
		"gpu.launches": float64(gpu.Launches),
		"gpu.busy_ns":  float64(gpu.BusyTime),
		"nvme.reads":   float64(ssd.Reads),
		"nvme.bytes":   float64(ssd.BytesR),
	}
}

// ---- route-open ----------------------------------------------------

const (
	routeReplicas  = 16
	routeServiceUs = 400.0
	routeCapacity  = routeReplicas * 1e6 / routeServiceUs // 40 000 req/s
	routeSLO       = 5 * sim.Time(1000*1000)              // p99 limit, 5 ms
)

// routeOpen is a replicated sleep-for-the-requested-time service
// behind the registry and a least-loaded balancer. Request ids are
// unique for the life of the deployment; the served logs of all
// replicas are the at-most-once oracle.
type routeOpen struct {
	seed int64
	s    *stacks.Routed
	svc  []sim.Time
}

func (r *routeOpen) spec() testbed.Spec {
	r.s = &stacks.Routed{Replicas: routeReplicas, Policy: "least", Nodes: []int{1, 2, 3}}
	return testbed.Spec{Nodes: 4, Seed: r.seed, Services: []testbed.Service{r.s}}
}

func (r *routeOpen) start(tk *sim.Task, d *testbed.Deployment) {
	// One attempt per arrival: in an open loop a refusal is a failure,
	// not deferred load.
	r.s.B.Retry.Max = 1
	rng := testbed.Rand(r.seed)
	r.svc = make([]sim.Time, inputTable)
	for i := range r.svc {
		r.svc[i] = testbed.USec(rng.ExpFloat64() * routeServiceUs)
	}
}

func (r *routeOpen) request(t *sim.Task, client, i int) error {
	return r.s.Do(t, uint64(i)+1, r.svc[i%len(r.svc)])
}

func (r *routeOpen) counters() map[string]float64 {
	b := r.s.B.Stats()
	m := map[string]float64{
		"route.calls":     float64(b.Calls),
		"route.shed":      float64(b.Shed),
		"route.failovers": float64(b.Failovers),
		"route.resolves":  float64(b.Resolves),
	}
	for _, in := range r.s.AllInstances {
		st := in.R.Stats()
		m["route.completed_sum"] += float64(st.Completed)
		m["route.completed_max"] = max(m["route.completed_max"], float64(st.Completed))
		m["route.depth_hwm"] = max(m["route.depth_hwm"], float64(st.DepthHWM))
	}
	return m
}

// verify checks that no request id was executed twice and every
// request whose caller saw success was executed (request i carries id
// i+1).
func (r *routeOpen) verify(lat []sim.Time) int {
	served := make([]uint8, len(lat)+1)
	bad := 0
	for _, in := range r.s.AllInstances {
		for _, id := range in.R.Served() {
			if id >= uint64(len(served)) {
				bad++
			} else if served[id]++; served[id] > 1 {
				bad++
			}
		}
	}
	for i, l := range lat {
		if l >= 0 && served[i+1] != 1 {
			bad++
		}
	}
	return bad
}
