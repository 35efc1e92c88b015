// Package faceverify implements the paper's end-to-end application
// (§5): a face-verification service that checks a batch of probe
// photos against a secure database. Database images are read from the
// storage stack; the matching kernel runs on the disaggregated GPU.
//
// Two complete implementations are provided over identical devices and
// workloads:
//
//   - FractOS: the decentralized request pipeline of Figure 2 — the
//     storage stack copies database images straight into GPU memory
//     and invokes the kernel, whose success continuation returns to
//     the frontend; the only other data movements are the probe upload
//     and the small result download.
//
//   - Baseline: the centralized star of §6.5 — NFS (backed by NVMe-oF)
//     brings database images to the frontend, rCUDA ships them to the
//     GPU, launches, and ships results back. The same bytes cross the
//     network three times.
package faceverify

import (
	"encoding/binary"
	"math/rand"
	"time"

	"fractos/internal/device/gpu"
	"fractos/internal/sim"
	"fractos/internal/wire"
)

// Workload geometry.
const (
	// ImgSize is one enrolled database photo (4 KiB).
	ImgSize = 4096
	// ProbeSize is the compact face descriptor a client submits with
	// its request (the verification input); the kernel matches it
	// against the leading ProbeSize bytes of the enrolled photo.
	ProbeSize = 256
	// MaxBatch bounds a single request's batch.
	MaxBatch = 1024
	// Threshold is the maximum L1 distance for a match.
	Threshold = 30 * ProbeSize
)

// KernelName is the face-verification GPU kernel.
const KernelName = "faceverify"

// KernelPerImage is the modeled per-image kernel execution time on the
// K80, calibrated so the GPU becomes the end-to-end bottleneck at ~4
// in-flight requests (Figure 13).
const KernelPerImage = 4 * sim.Time(time.Microsecond)

// RegisterKernel installs the face-verification kernel on a GPU.
//
// Kernel arguments: [0]=dbAddr [1]=probeAddr [2]=outAddr [3]=batch.
// For each image i it matches probe descriptor i (ProbeSize bytes)
// against enrolled photo i and writes 1 (match) or 0 at out[i].
func RegisterKernel(dev *gpu.Device) {
	dev.Register(KernelName, func(mem []byte, args []uint64) uint64 {
		if len(args) < 4 {
			return 1
		}
		db, probe, out, batch := args[0], args[1], args[2], args[3]
		if batch == 0 || batch > MaxBatch {
			return 1
		}
		size := uint64(len(mem))
		if !wire.Within(db, batch*ImgSize, size) || !wire.Within(probe, batch*ProbeSize, size) ||
			!wire.Within(out, batch, size) {
			return 1
		}
		for i := uint64(0); i < batch; i++ {
			d := l1(mem[db+i*ImgSize:db+i*ImgSize+ProbeSize],
				mem[probe+i*ProbeSize:probe+(i+1)*ProbeSize])
			if d <= Threshold {
				mem[out+i] = 1
			} else {
				mem[out+i] = 0
			}
		}
		return 0
	}, func(args []uint64) sim.Time {
		if len(args) < 4 {
			return 0
		}
		return sim.Time(args[3]) * KernelPerImage
	})
}

func l1(a, b []byte) int {
	d := 0
	for i := range a {
		v := int(a[i]) - int(b[i])
		if v < 0 {
			v = -v
		}
		d += v
	}
	return d
}

// DB is the synthetic identity database: deterministic pseudo-images
// per identity, grouped into batch files as stored on the storage
// stack (one file per batch keeps the paper's per-request message
// pattern: one open + one read).
//
// A DB has state: one generator it reseeds per image, and the probe
// descriptor of every identity it has generated. It belongs to one
// simulation, whose tasks run one at a time.
type DB struct {
	Identities int
	seed       int64
	rng        *rand.Rand
	probes     []byte // identity id's descriptor at id*ProbeSize, once known[id]
	known      []bool // over 0..Identities: an impostor of the last identity uses id Identities
	seedings   int
}

// NewDB creates a database of n identities.
func NewDB(n int, seed int64) *DB {
	return &DB{Identities: n, seed: seed, rng: rand.New(rand.NewSource(seed)),
		probes: make([]byte, (n+1)*ProbeSize), known: make([]bool, n+1)}
}

// imageInto fills dst with the leading len(dst) (≥ ProbeSize) bytes of
// identity id's image, recording its descriptor the first time.
// Rand.Seed resets the generator's read position, so the bytes are
// those of a fresh source.
func (db *DB) imageInto(dst []byte, id int) {
	db.rng.Seed(db.seed ^ int64(id)*0x9e3779b9)
	db.seedings++
	db.rng.Read(dst)
	if uint(id) <= uint(db.Identities) && !db.known[id] {
		copy(db.probes[id*ProbeSize:(id+1)*ProbeSize], dst)
		db.known[id] = true
	}
}

// batchInto fills dst with the batch file that starts at identity first.
func (db *DB) batchInto(dst []byte, first int) {
	for i := 0; i < len(dst)/ImgSize; i++ {
		db.imageInto(dst[i*ImgSize:(i+1)*ImgSize], (first+i)%db.Identities)
	}
}

// Probe returns a probe descriptor for identity id: if genuine, a
// slightly perturbed copy of the enrolled photo's descriptor (a
// match); otherwise a different identity's (a mismatch). The caller
// owns the result.
func (db *DB) Probe(id int, genuine bool, rng *rand.Rand) []byte {
	if !genuine {
		id++
	}
	out := make([]byte, ProbeSize)
	if uint(id) <= uint(db.Identities) && db.known[id] {
		copy(out, db.probes[id*ProbeSize:])
	} else {
		db.imageInto(out, id)
	}
	if genuine {
		// Perturb a small fraction of the descriptor.
		for i := 0; i < ProbeSize/32; i++ {
			out[rng.Intn(ProbeSize)] ^= byte(rng.Intn(8))
		}
	}
	return out
}

// Request is one verification request: a batch of probe descriptors
// for the identities of one batch file.
type Request struct {
	FileIdx int
	Probes  []byte // batch × ProbeSize
	Batch   int
	Genuine []bool // ground truth, for checking results
}

// MakeRequest builds a request against batch file fileIdx with a
// random genuine/impostor mix.
func MakeRequest(db *DB, fileIdx, batch int, rng *rand.Rand) *Request {
	r := &Request{FileIdx: fileIdx, Batch: batch, Probes: make([]byte, 0, batch*ProbeSize), Genuine: make([]bool, 0, batch)}
	for i := 0; i < batch; i++ {
		id := (fileIdx*batch + i) % db.Identities
		genuine := rng.Intn(2) == 0
		r.Genuine = append(r.Genuine, genuine)
		r.Probes = append(r.Probes, db.Probe(id, genuine, rng)...)
	}
	return r
}

// CheckResults verifies the kernel's verdicts against ground truth.
func (r *Request) CheckResults(out []byte) bool {
	if len(out) < r.Batch {
		return false
	}
	for i := 0; i < r.Batch; i++ {
		if (out[i] == 1) != r.Genuine[i] {
			return false
		}
	}
	return true
}

// putArgs encodes kernel args for immediate buffers.
func putArgs(vals ...uint64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	return b
}
