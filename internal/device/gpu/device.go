// Package gpu models a disaggregated GPU (the NVIDIA Tesla K80 of
// Table 2) and implements the FractOS GPU adaptor service of §5: a
// host-CPU Process that exposes context initialization, memory
// de/allocation, kernel loading, and kernel invocation as Requests.
//
// The device executes real compute: kernels are Go functions operating
// on the bytes of the adaptor's arena (which models GPU memory that is
// RDMA-accessible via GPUDirect), under a timing model of launch
// overhead plus a per-kernel cost function.
package gpu

import (
	"fmt"
	"time"

	"fractos/internal/proc"
	"fractos/internal/sim"
)

// KernelFunc is a loaded GPU kernel: it computes over GPU memory with
// the forwarded immediate arguments, returning a status (0 = success).
// args is the device's, borrowed for the call.
type KernelFunc func(mem []byte, args []uint64) uint64

// CostFunc models a kernel's execution time for given arguments.
type CostFunc func(args []uint64) sim.Time

// Config is the device model.
type Config struct {
	// MemSize is the GPU memory size in bytes.
	MemSize int
	// LaunchOverhead is the fixed cost of a kernel launch.
	LaunchOverhead sim.Time
}

// DefaultConfig models the paper's K80 for the face-verification
// workload.
func DefaultConfig() Config {
	return Config{
		MemSize:        64 << 20,
		LaunchOverhead: 10 * sim.Time(time.Microsecond),
	}
}

type kernel struct {
	name string
	fn   KernelFunc
	cost CostFunc
}

// Device is one simulated GPU. It runs one kernel at a time, in arrival
// order: a blocking Exec and an adaptor's invocation wait in one FIFO.
type Device struct {
	k       *sim.Kernel
	cfg     Config
	kernels map[string]*kernel

	busy  bool   // a kernel is running
	queue []*job // waiting for the device
	jobs  sim.FreeList[job]

	// Counters for the evaluation harness.
	Launches int64
	BusyTime sim.Time
}

// job is a kernel waiting for the device or running on it: a pooled
// record. An invocation's job answers its delivery and is its kernel
// timer's target; an Exec's holds the task's place until its turn.
type job struct {
	d    *Device
	kn   *kernel
	p    *proc.Process // an invocation's: whose memory the kernel runs on
	args []uint64
	dur  sim.Time
	inv  *proc.Delivery // nil for an Exec's
	turn sim.Future[struct{}]
}

// NewDevice creates a GPU.
func NewDevice(k *sim.Kernel, cfg Config) *Device {
	if cfg.MemSize == 0 {
		cfg = DefaultConfig()
	}
	return &Device{k: k, cfg: cfg, kernels: make(map[string]*kernel)}
}

// MemSize returns the GPU memory size.
func (d *Device) MemSize() int { return d.cfg.MemSize }

// Register installs a kernel binary on the device (the pool of kernels
// an adaptor can load).
func (d *Device) Register(name string, fn KernelFunc, cost CostFunc) {
	d.kernels[name] = &kernel{name: name, fn: fn, cost: cost}
}

// Exec runs a kernel over mem (GPU memory), blocking the caller while
// the kernels ahead of it run and then for its modeled execution time.
func (d *Device) Exec(t *sim.Task, name string, mem []byte, args []uint64) (uint64, error) {
	kn, ok := d.kernels[name]
	if !ok {
		return 0, fmt.Errorf("gpu: unknown kernel %q", name)
	}
	if d.busy {
		d.awaitTurn(t, d.getJob())
	}
	d.busy = true
	dur := d.cfg.LaunchOverhead + kn.cost(args)
	t.Sleep(dur)
	st := d.run(kn, dur, mem, args)
	d.next()
	return st, nil
}

// submit queues the adaptor's invocation inv of kernel kn over p's
// arena, arguments at imm[from:) decoded into the job's own list, which
// the job answers once the kernel has run.
//
//fractos:pool-handoff delivery
func (d *Device) submit(inv *proc.Delivery, kn *kernel, p *proc.Process, from int) {
	j := d.getJob()
	j.kn, j.p, j.inv = kn, p, inv
	j.args = kernelArgs(j.args[:0], inv.Imms, from)
	if d.busy {
		d.wait(j)
	} else {
		d.start(j)
	}
}

//fractos:pool-acquire gpujob
func (d *Device) getJob() *job {
	j := d.jobs.Get()
	j.d = d
	return j
}

//fractos:pool-release gpujob
func (d *Device) putJob(j *job) {
	j.turn.Reset()
	*j = job{args: j.args[:0]}
	d.jobs.Put(j)
}

// awaitTurn queues an Exec's job until the device is the task's.
//
//fractos:pool-release gpujob
func (d *Device) awaitTurn(t *sim.Task, j *job) {
	d.wait(j)
	_, _ = j.turn.Wait(t) // resolved by next, never failed
	d.putJob(j)
}

//fractos:pool-handoff gpujob
func (d *Device) wait(j *job) { d.queue = append(d.queue, j) }

// start runs an invocation's job: the device is its own until its timer.
//
//fractos:pool-handoff gpujob
func (d *Device) start(j *job) {
	d.busy = true
	j.dur = d.cfg.LaunchOverhead + j.kn.cost(j.args)
	d.k.AfterCall(j.dur, j)
}

// Fire implements sim.Callback: an invocation's kernel time is over,
// and the kernel runs on the memory allocated so far. The view is taken
// now, not at submit: allocations and RDMA writes while the job waited
// and ran may have grown the arena's backing store since.
func (j *job) Fire() {
	d, inv, p := j.d, j.inv, j.p
	st := d.run(j.kn, j.dur, p.ArenaRange(0, p.Allocated()), j.args)
	d.putJob(j)
	d.next()
	answer(inv, st)
}

// run executes a kernel whose time is over and counts it.
func (d *Device) run(kn *kernel, dur sim.Time, mem []byte, args []uint64) uint64 {
	d.Launches++
	d.BusyTime += dur
	return kn.fn(mem, args)
}

// next hands the device to the first job waiting, if any.
func (d *Device) next() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	j := d.queue[0]
	d.queue = d.queue[:copy(d.queue, d.queue[1:])]
	if j.inv != nil {
		d.start(j)
	} else {
		j.turn.Set(struct{}{})
	}
}
