// Command fractos-trace dumps a message-level trace of one
// face-verification request on either the FractOS or the baseline
// stack — the raw material behind Figure 2's traffic analysis.
//
// Usage:
//
//	fractos-trace             # trace the FractOS pipeline
//	fractos-trace -baseline   # trace the NFS+NVMe-oF+rCUDA stack
//	fractos-trace -batch 8    # request batch size
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"

	"fractos/internal/app/faceverify"
	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

func main() {
	useBaseline := flag.Bool("baseline", false, "trace the baseline stack instead of FractOS")
	batch := flag.Int("batch", 8, "request batch size")
	flag.Parse()

	cfg := faceverify.Config{Batch: *batch, Files: 1, Slots: 1}

	// failed is what ends the command with status 1: a failed set-up or
	// request, or a wrong verdict.
	var failed error
	testbed.Run(testbed.Spec{Nodes: 4}, func(tk *sim.Task, d *testbed.Deployment) {
		cl := d.Cl
		var verify func(*sim.Task, *faceverify.Request) ([]byte, error)
		var db *faceverify.DB
		if *useBaseline {
			app, err := faceverify.SetupBaseline(tk, cl, cfg)
			if err != nil {
				failed = fmt.Errorf("setup: %w", err)
				return
			}
			verify, db = app.VerifyBatch, app.DB
		} else {
			app, err := faceverify.SetupFractOS(tk, cl, cfg)
			if err != nil {
				failed = fmt.Errorf("setup: %w", err)
				return
			}
			verify, db = app.VerifyBatch, app.DB
		}

		name := func(id fabric.EndpointID) string {
			if ep, ok := cl.Net.Lookup(id); ok {
				return fmt.Sprintf("%s(%v)", ep.Name, ep.Loc)
			}
			return fmt.Sprintf("ep%d", id)
		}
		sys := "FractOS"
		if *useBaseline {
			sys = "baseline"
		}
		fmt.Printf("=== one face-verification request, batch %d, %s ===\n", *batch, sys)
		fmt.Printf("%-12s %-9s %-7s %8s  %s\n", "time", "kind", "class", "bytes", "path")
		cross := map[string]int{}       // cross-node transfers by kind
		purposes := map[string][2]int{} // local and cross-node transfers by purpose
		cl.Net.SetTrace(func(e fabric.TraceEvent) {
			kind, purpose := fmt.Sprintf("msg:%d", e.Type), e.Type.Purpose()
			if e.RDMA {
				kind, purpose = "rdma", "data"
			}
			x := 0 // local, 1 cross-node
			if from, _ := cl.Net.Lookup(e.From); from != nil {
				if to, _ := cl.Net.Lookup(e.To); to != nil && from.Loc.Node != to.Loc.Node {
					cross[kind]++
					x = 1
				}
			}
			c := purposes[purpose]
			c[x]++
			purposes[purpose] = c
			class := "ctrl"
			if e.Class == wire.Data {
				class = "DATA"
			}
			fmt.Printf("%-12v %-9s %-7s %8d  %s -> %s\n", e.At, kind, class, e.Bytes, name(e.From), name(e.To))
		})

		req := faceverify.MakeRequest(db, 0, *batch, rand.New(rand.NewSource(1)))
		before := cl.Net.Stats()
		out, err := verify(tk, req)
		if err != nil {
			failed = fmt.Errorf("request: %w", err)
			return
		}
		cl.Net.SetTrace(nil)
		st := cl.Net.Stats().Sub(before)
		ok := req.CheckResults(out)
		fmt.Printf("\nverdicts ok: %v\n", ok)
		if !ok {
			failed = errors.New("wrong verdicts")
		}
		fmt.Printf("totals: %d messages (%d control, %d data), %d bytes on the wire, %d cross-node\n",
			st.TotalMsgs(), st.ControlMsgs, st.DataMsgs, st.TotalBytes(), st.CrossNodeMsgs)
		fmt.Printf("%-15s %6s %11s\n", "by purpose", "local", "cross-node")
		for _, p := range wire.Purposes {
			fmt.Printf("  %-13s %6d %11d\n", p, purposes[p][0], purposes[p][1])
		}
		if !*useBaseline {
			kinds := make([]string, 0, len(cross))
			for kind := range cross {
				kinds = append(kinds, kind)
			}
			slices.Sort(kinds)
			fmt.Print("cross-node by type:")
			for _, kind := range kinds {
				fmt.Printf(" %s ×%d", kind, cross[kind])
			}
			fmt.Println()
			fmt.Println("\ncontroller counters:")
			for _, ctrl := range cl.Ctrls {
				fmt.Printf("  ctrl%d@%v: %v\n", ctrl.ID(), ctrl.Loc(), ctrl.Metrics())
				fp := ctrl.Footprint()
				fmt.Printf("    footprint: %.1f MB total (%.0f MB proc queues, %.0f MB peer queues, %d B caps, %d B objects)\n",
					float64(fp.Total())/1e6, float64(fp.ProcQueueBytes)/1e6,
					float64(fp.PeerQueueBytes)/1e6, fp.CapSpaceBytes, fp.ObjectBytes)
			}
		}
	})
	if failed != nil {
		fmt.Fprintln(os.Stderr, "fractos-trace:", failed)
		os.Exit(1)
	}
}
