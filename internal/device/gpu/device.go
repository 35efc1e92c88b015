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

// LaunchOverhead is the fixed cost of a kernel launch on the paper's
// K80.
const LaunchOverhead = 10 * sim.Time(time.Microsecond)

// DefaultMemSize is the GPU memory of every program's device: Figure 9's
// batches and the face-verification app's buffer pool fit in it.
const DefaultMemSize = 96 << 20

type kernel struct {
	name string
	fn   KernelFunc
	cost CostFunc
}

// Device is one simulated GPU. It runs one kernel at a time, in arrival
// order: a blocking Exec and an adaptor's invocation wait in one FIFO.
type Device struct {
	k       *sim.Kernel
	memSize int
	kernels map[string]*kernel

	busy  bool   // a kernel is running
	queue []*job // waiting for the device
	jobs  sim.FreeList[job]

	// Counters for the evaluation harness.
	Launches int64
	BusyTime sim.Time
}

// job is a kernel waiting for the device or running on it: a pooled
// record, its kernel timer's target, that tells its Runner how the
// kernel ran.
type job struct {
	d    *Device
	kn   *kernel
	to   Runner
	args []uint64
	dur  sim.Time
	inv  *proc.Delivery // an adaptor invocation's, passed back to its Runner
}

// Runner is who a kernel runs for. Memory is the GPU memory the kernel
// computes on, taken when its time is over, not when it was queued:
// allocations and RDMA writes while it waited and ran may have grown the
// memory's backing store since. Ran takes the kernel's status and the
// delivery it was queued for, nil but for an adaptor's invocation.
type Runner interface {
	Memory() []byte
	Ran(inv *proc.Delivery, st uint64)
}

// NewDevice creates a GPU with memSize bytes of memory.
func NewDevice(k *sim.Kernel, memSize int) *Device {
	d := &Device{k: k, memSize: memSize, kernels: make(map[string]*kernel)}
	k.Track("gpu job", &d.jobs)
	return d
}

// MemSize returns the GPU memory size.
func (d *Device) MemSize() int { return d.memSize }

// Register installs a kernel binary on the device (the pool of kernels
// an adaptor can load).
func (d *Device) Register(name string, fn KernelFunc, cost CostFunc) {
	d.kernels[name] = &kernel{name: name, fn: fn, cost: cost}
}

// Exec is Launch for a task: it runs a kernel over mem (GPU memory),
// blocking the caller while the kernels ahead of it run and then for its
// modeled execution time.
func (d *Device) Exec(t *sim.Task, name string, mem []byte, args []uint64) (uint64, error) {
	r := &execRun{mem: mem}
	if err := d.Launch(r, name, args); err != nil {
		return 0, err
	}
	return r.st.Wait(t)
}

// execRun is an Exec's Runner: the caller's memory, and the status the
// caller waits for.
type execRun struct {
	mem []byte
	st  sim.Future[uint64]
}

func (r *execRun) Memory() []byte                  { return r.mem }
func (r *execRun) Ran(_ *proc.Delivery, st uint64) { r.st.Set(st) }

// Launch queues kernel name for r with a copy of args and returns: the
// kernel runs once those queued before it have, and then r.Ran gets its
// status.
func (d *Device) Launch(r Runner, name string, args []uint64) error {
	kn, ok := d.kernels[name]
	if !ok {
		return fmt.Errorf("gpu: unknown kernel %q", name)
	}
	d.submit(r, nil, kn, args)
	return nil
}

// submit queues kernel kn for to with a copy of args; to.Ran gets inv
// back with the status.
func (d *Device) submit(to Runner, inv *proc.Delivery, kn *kernel, args []uint64) {
	j := d.getJob()
	j.kn, j.to, j.inv = kn, to, inv
	j.args = append(j.args[:0], args...)
	if d.busy {
		d.wait(j)
	} else {
		d.start(j)
	}
}

func (d *Device) getJob() *job {
	j := d.jobs.Get()
	j.d = d
	return j
}

func (d *Device) putJob(j *job) {
	*j = job{args: j.args[:0]}
	d.jobs.Put(j)
}

func (d *Device) wait(j *job) { d.queue = append(d.queue, j) }

// start runs a job: the device is its own until its timer.
func (d *Device) start(j *job) {
	d.busy = true
	j.dur = LaunchOverhead + j.kn.cost(j.args)
	d.k.AfterCall(j.dur, j)
}

// Fire implements sim.Callback: the job's kernel time is over, and the
// kernel runs on its Runner's memory as it is now.
func (j *job) Fire() {
	d, to, inv := j.d, j.to, j.inv
	d.Launches++
	d.BusyTime += j.dur
	st := j.kn.fn(to.Memory(), j.args)
	d.putJob(j)
	d.next()
	to.Ran(inv, st)
}

// next hands the device to the first job waiting, if any.
func (d *Device) next() {
	if len(d.queue) == 0 {
		d.busy = false
		return
	}
	j := d.queue[0]
	d.queue = d.queue[:copy(d.queue, d.queue[1:])]
	d.start(j)
}
