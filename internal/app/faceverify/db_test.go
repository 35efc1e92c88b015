package faceverify

import (
	"bytes"
	"math/rand"
	"testing"

	"fractos/internal/core"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

// refImage is identity id's image as a fresh generator yields it: the
// database's definition, which a DB reusing one generator must match
// byte for byte.
func refImage(seed int64, id int) []byte {
	img := make([]byte, ImgSize)
	rand.New(rand.NewSource(seed ^ int64(id)*0x9e3779b9)).Read(img)
	return img
}

func refProbe(seed int64, id int, genuine bool, rng *rand.Rand) []byte {
	if !genuine {
		return refImage(seed, id+1)[:ProbeSize]
	}
	out := refImage(seed, id)[:ProbeSize]
	for i := 0; i < ProbeSize/32; i++ {
		out[rng.Intn(ProbeSize)] ^= byte(rng.Intn(8))
	}
	return out
}

// TestDBMatchesFreshGenerator holds Image, BatchFile (wrapping past the
// last identity) and Probe, genuine and impostor, to the reference for
// every identity, on a cold DB and on one whose descriptors are all
// cached, and checks that a probe is the caller's to change.
func TestDBMatchesFreshGenerator(t *testing.T) {
	const n = 24
	for _, seed := range []int64{7, 42} {
		warm := NewDB(n, seed)
		for id := 0; id <= n; id++ {
			if !bytes.Equal(warm.Image(id), refImage(seed, id)) {
				t.Errorf("seed %d: Image(%d) differs", seed, id)
			}
		}
		for _, first := range []int{0, n - 3} {
			var want []byte
			for i := 0; i < 8; i++ {
				want = append(want, refImage(seed, (first+i)%n)...)
			}
			for state, db := range map[string]*DB{"cold": NewDB(n, seed), "warm": warm} {
				if !bytes.Equal(db.BatchFile(first, 8), want) {
					t.Errorf("seed %d, %s: BatchFile(%d, 8) differs", seed, state, first)
				}
			}
		}
		for _, genuine := range []bool{true, false} {
			for id := 0; id <= n; id++ {
				want := refProbe(seed, id, genuine, rand.New(rand.NewSource(int64(id))))
				for state, db := range map[string]*DB{"cold": NewDB(n, seed), "warm": warm} {
					if got := db.Probe(id, genuine, rand.New(rand.NewSource(int64(id)))); !bytes.Equal(got, want) {
						t.Errorf("seed %d, %s: Probe(%d, genuine %v) differs", seed, state, id, genuine)
					}
				}
			}
		}
		p := warm.Probe(0, false, nil)
		p[0] ^= 0xff
		if !bytes.Equal(warm.Probe(0, false, nil), refImage(seed, 1)[:ProbeSize]) {
			t.Errorf("seed %d: changing a returned probe changed the next", seed)
		}
	}
}

// TestSetupSeedsEachIdentityOnce deploys the face-verification app, on
// FractOS and on the baseline, at the benchmark's geometry and builds
// the benchmark's 128 requests: the DB seeds its generator once per
// identity, when set-up writes its image, and once more for identity
// Identities if a probe impersonates the last identity. It seeded 6,144
// times while every probe regenerated its identity's image.
func TestSetupSeedsEachIdentityOnce(t *testing.T) {
	const batch, files = 32, 64
	cfg := Config{Batch: batch, Files: files, Slots: 4, Seed: 2}
	for _, baseline := range []bool{false, true} {
		runApp(t, core.CtrlOnCPU, func(tk *sim.Task, cl *core.Cluster) {
			var db *DB
			if baseline {
				app, err := SetupBaseline(tk, cl, cfg)
				if err != nil {
					t.Errorf("baseline setup: %v", err)
					return
				}
				db = app.DB
			} else {
				app, err := SetupFractOS(tk, cl, cfg)
				if err != nil {
					t.Errorf("setup: %v", err)
					return
				}
				db = app.DB
			}
			lastImpostor := 0
			rng := testbed.Rand(1)
			for v := 0; v < 2; v++ {
				for file := 0; file < files; file++ {
					if r := MakeRequest(db, file, batch, rng); file == files-1 && !r.Genuine[batch-1] {
						lastImpostor = 1
					}
				}
			}
			if got, want := db.Seedings(), batch*files+lastImpostor; got != want {
				t.Errorf("baseline %v: %d seedings, want %d", baseline, got, want)
			}
		})
	}
}
