package baseline_test

import (
	"math/rand"
	"testing"

	"fractos/internal/app/faceverify"
	"fractos/internal/fs"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/testbed/stacks"
)

// mostLive runs op in the calling task and returns the most tasks alive
// at any microsecond meanwhile, sampled in kernel context so that the
// sampling holds no task of its own.
func mostLive(k *sim.Kernel, op func()) int {
	most, done := 0, false
	var sample func()
	sample = func() {
		most = max(most, k.Live())
		if !done {
			k.After(1000, sample)
		}
	}
	k.After(0, sample)
	op()
	done = true
	return most
}

// TestBaselineHoldsNoTask: the baseline's servers and its NVMe-oF
// read-ahead serve in kernel context, and so does the FS's FS-mode I/O,
// over either backend. While a request is in flight, the only live task
// is the application's.
func TestBaselineHoldsNoTask(t *testing.T) {
	t.Run("face verification", func(t *testing.T) {
		testbed.RunT(t, testbed.Spec{Nodes: 4}, func(tk *sim.Task, d *testbed.Deployment) {
			app, err := faceverify.SetupBaseline(tk, d.Cl, faceverify.Config{Batch: 8, Files: 1, Slots: 1})
			if err != nil {
				t.Error(err)
				return
			}
			req := faceverify.MakeRequest(app.DB, 0, 8, rand.New(rand.NewSource(1)))
			n := mostLive(d.Cl.K, func() { _, err = app.VerifyBatch(tk, req) })
			if err != nil || n != 1 {
				t.Errorf("a baseline request: %v, and %d live tasks; want 1 (the application's)", err, n)
			}
		})
	})
	for _, kind := range []struct {
		name string
		kind stacks.StorageKind
	}{{"FS mode over the block adaptor", stacks.StorFS}, {"FS mode over NVMe-oF", stacks.StorDisagg}} {
		t.Run(kind.name, func(t *testing.T) {
			stor := &stacks.Storage{Kind: kind.kind, ForWrite: true}
			testbed.RunT(t, testbed.Spec{Nodes: 3, Services: []testbed.Service{stor}}, func(tk *sim.Task, d *testbed.Deployment) {
				// Both operations cross an extent boundary.
				const off, n = fs.ExtentSize / 2, fs.ExtentSize
				mem := stor.Buf(tk, n)
				var errW, errR error
				most := mostLive(d.Cl.K, func() {
					errW = stor.File.WriteAt(tk, off, n, mem)
					errR = stor.File.ReadAt(tk, off, n, mem)
				})
				if errW != nil || errR != nil || most != 1 {
					t.Errorf("write %v, read %v, and %d live tasks; want 1 (the application's)", errW, errR, most)
				}
			})
		})
	}
}
