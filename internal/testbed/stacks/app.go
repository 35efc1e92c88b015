package stacks

import (
	"fractos/internal/app/faceverify"
	"fractos/internal/assert"
	"fractos/internal/sim"
	"fractos/internal/testbed"
)

// FaceVerify deploys the paper's end-to-end face-verification
// application (§5, §6.5) on a 4-node testbed: frontend on node 0, GPU
// on node 1, storage on node 2, FS on node 3 (node roles are fixed by
// the application package). Baseline selects the NFS + NVMe-oF + rCUDA
// stack instead of FractOS.
type FaceVerify struct {
	Cfg      faceverify.Config
	Baseline bool

	// Filled at deploy. App is set for the FractOS stack, Base for the
	// baseline; DB and Verify work for either.
	App  *faceverify.FractOSApp
	Base *faceverify.BaselineApp
	DB   *faceverify.DB
}

// Deploy implements testbed.Service.
func (v *FaceVerify) Deploy(tk *sim.Task, d *testbed.Deployment) {
	if v.Baseline {
		app, err := faceverify.SetupBaseline(tk, d.Cl, v.Cfg)
		assert.NoErr(err, "stacks/faceverify")
		v.Base, v.DB = app, app.DB
		return
	}
	app, err := faceverify.SetupFractOS(tk, d.Cl, v.Cfg)
	assert.NoErr(err, "stacks/faceverify")
	v.App, v.DB = app, app.DB
}

// Verify runs one verification request on whichever stack was
// deployed.
func (v *FaceVerify) Verify(tk *sim.Task, r *faceverify.Request) ([]byte, error) {
	if v.Baseline {
		return v.Base.VerifyBatch(tk, r)
	}
	return v.App.VerifyBatch(tk, r)
}

var _ testbed.Service = (*FaceVerify)(nil)
