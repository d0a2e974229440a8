package main

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/host"
	"repro/internal/order"
)

// sweepOp is one homogeneity measurement: what /v1/measure computes.
type sweepOp struct {
	name string // span suffix: order.sweep_<name>
	host string
	rmax int
}

// sweepOps are the sweep workload's hosts. The torus has few ball types
// (mostly interner probe hits), the random-regular graph has a new type
// at almost every ball (mostly interner inserts), and the expander's
// degree-8 balls make BFS and canonicalisation the cost. The graphs are
// fixed, the random-regular one for the reason scaleItems gives, so the
// seed changes nothing here.
var sweepOps = []sweepOp{
	{"torus", "torus:400x400", 4},
	{"rr", "random-regular:d=3,n=20000,seed=1", 3},
	{"expander", "margulis-expander:n=100", 3},
}

// runSweepOp parses the host and sweeps it, checking 0 <= alpha <= 1
// and types > 0 at every radius. The answer lists alpha, the type count
// and the majority count per radius.
func runSweepOp(t *tracer, root int, op sweepOp) (ans string, types int, err error) {
	var rh *host.Host
	t.call("host.parse", root, func() { rh, err = host.Parse(op.host) })
	if err != nil {
		return "", 0, err
	}
	var homs []order.Homogeneity
	t.call("order.sweep_"+op.name, root, func() {
		homs = order.SweepMeasureAll(rh.G, order.Identity(rh.G.N()), op.rmax)
	})
	var sb strings.Builder
	for r, hm := range homs {
		if !(hm.Alpha >= 0 && hm.Alpha <= 1) || len(hm.Counts) == 0 {
			return "", 0, fmt.Errorf("%s radius %d: alpha %v with %d types", op.host, r+1, hm.Alpha, len(hm.Counts))
		}
		types += len(hm.Counts)
		fmt.Fprintf(&sb, "r%d:alpha=%v,types=%d,majority=%d ", r+1, hm.Alpha, len(hm.Counts), hm.Count)
	}
	if len(homs) != op.rmax {
		return "", 0, fmt.Errorf("%s: %d radii measured, want %d", op.host, len(homs), op.rmax)
	}
	return strings.TrimSpace(sb.String()), types, nil
}

// sweepPasses measures every sweep host once per pass until the time is
// up (at least one pass). With a tracer it is the traced pass: one pass,
// a root span per host.
func sweepPasses(seconds float64, t *tracer) *opsResult {
	ops := sweepOps
	or := &opsResult{}
	for _, op := range ops {
		or.Labels = append(or.Labels, op.host)
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		start := time.Now()
		lat := make([]float64, len(ops))
		rss := make([]int64, len(ops))
		for k, op := range ops {
			or.Attempted++
			// Every op starts from an empty heap returned to the OS, as
			// a fresh request would, so its peak RSS is its own.
			debug.FreeOSMemory()
			resetPeakRSS()
			before := readRuntime()
			root := t.begin("item:sweep "+op.host, -1)
			t0 := time.Now()
			ans, types, err := runSweepOp(t, root, op)
			lat[k] = time.Since(t0).Seconds()
			t.end(root)
			or.Runtime.add(before, readRuntime())
			rss[k] = peakRSSKB()
			if err != nil {
				or.Failures = append(or.Failures, err.Error())
			}
			if len(or.Lat) == 0 {
				or.Answers = append(or.Answers, ans)
				or.Types += types
			}
		}
		or.Lat = append(or.Lat, lat)
		or.RSSKB = append(or.RSSKB, rss)
		if t != nil || time.Now().Add(time.Since(start)).After(deadline) {
			return or
		}
	}
}
