package exp

import (
	"fmt"
	"slices"

	"fractos/internal/fabric"
	"fractos/internal/sim"
	"fractos/internal/testbed"
	"fractos/internal/wire"
)

// AblationMessageComplexity verifies §2.1's analysis empirically: for
// an N-service pipeline, the centralized model exchanges ~2N
// steady-state service interactions while the distributed model needs
// ~N+1. We run the Figure 8 pipeline under both models and count
// cross-node messages, split into service-level interactions
// (invocations + deliveries + data transfers) and protocol overhead
// (acks, validations, completions).
func AblationMessageComplexity() *Table {
	t := NewTable("abl-msgs", "Message complexity: centralized vs distributed pipeline",
		"stages", "star svc-msgs", "chain svc-msgs", "measured ratio", "analytic 2N/(N+1)", "star total", "chain total")
	for _, stages := range []int{2, 4, 8} {
		starSvc, starAll := countPipelineMsgs(stages, false)
		chainSvc, chainAll := countPipelineMsgs(stages, true)
		t.AddRow(fmt.Sprint(stages),
			fmt.Sprint(starSvc), fmt.Sprint(chainSvc),
			fmt.Sprintf("%.2fx", float64(starSvc)/float64(chainSvc)),
			fmt.Sprintf("%.2fx", float64(2*stages)/float64(stages+1)),
			fmt.Sprint(starAll), fmt.Sprint(chainAll))
		if stages == 8 {
			t.Metric("star8-svc", float64(starSvc))
			t.Metric("chain8-svc", float64(chainSvc))
			t.Metric("ratio8", float64(starSvc)/float64(chainSvc))
		}
	}
	t.Note("svc-msgs: cross-node data transfers + invocation deliveries (the interactions §2.1 counts);")
	t.Note("total additionally includes protocol acks/validations/completions")
	t.Note("§2.1: the distributed model reduces steady-state messages by up to 2x (from 2N to N+1)")
	return t
}

// countPipelineMsgs runs one pipeline execution and counts its
// cross-node traffic. Service messages are the data transfers plus
// the CtrlInvoke forwards and deliveries (the paper's schematic
// arrows).
func countPipelineMsgs(stages int, chain bool) (svcMsgs, total int64) {
	testbed.Run(testbed.Spec{Nodes: stages + 1}, func(tk *sim.Task, d *testbed.Deployment) {
		pl := newPipeline(tk, d.Cl, stages, 4<<10)
		c := countTraffic(d.Net(), func() {
			if chain {
				pl.runChain(tk)
			} else {
				pl.runStar(tk)
			}
		})
		svcMsgs, total = c.transfers+c.invokes, c.frames
	})
	return
}

// traffic counts the cross-node part of a fabric trace: every frame
// and RDMA chunk, their bytes, the control messages, the service
// invocations among them (CtrlInvoke, Deliver), and the data
// transfers. A transfer is a Data-class frame, consecutive RDMA chunks
// on one path counting once: the 16 KiB bounce-buffer chunking is
// below message granularity (one RDMA verb moves the whole buffer in
// hardware). purposes counts them local [0] and cross-node [1] by
// wire.Purposes class.
type traffic struct {
	frames, bytes, ctrl, invokes, transfers int64
	purposes                                [][2]int64
}

// countTraffic counts the traffic net carries while run runs.
func countTraffic(net *fabric.Net, run func()) traffic {
	c := traffic{purposes: make([][2]int64, len(wire.Purposes))}
	var last [2]fabric.TraceEvent // the last Data-class event, local and cross-node
	net.SetTrace(func(e fabric.TraceEvent) {
		src, _ := net.Lookup(e.From)
		dst, _ := net.Lookup(e.To)
		x := 0
		if src.Loc.Node != dst.Loc.Node {
			x = 1
			c.frames++
			c.bytes += int64(e.Bytes)
		}
		count := &c.purposes[slices.Index(wire.Purposes, e.Type.Purpose())][x]
		if e.Class != wire.Data {
			*count++
			c.ctrl += int64(x)
			if x == 1 && (e.Type == wire.TCtrlInvoke || e.Type == wire.TDeliver) {
				c.invokes++
			}
			return
		}
		if !e.RDMA || !last[x].RDMA || last[x].From != e.From || last[x].To != e.To {
			*count++
			c.transfers += int64(x)
		}
		last[x] = e
	})
	run()
	net.SetTrace(nil)
	return c
}
