package algorithms

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

func floodHost(n int) *model.Host { return model.HostFromGraph(graph.Cycle(n)) }

func TestFloodMaxConverges(t *testing.T) {
	n := 24
	h := floodHost(n)
	ids := rand.New(rand.NewSource(3)).Perm(8 * n)[:n]
	leader := 0
	for _, id := range ids {
		if id > leader {
			leader = id
		}
	}
	// Horizon >= diameter: every node learns the leader.
	res, err := floodMax(model.NewEngine(h), h, ids, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leader != leader || res.Converged != n {
		t.Fatalf("FloodMax = leader %d converged %d (want %d, %d)", res.Leader, res.Converged, leader, n)
	}
	// Horizon 1: only the leader's neighbourhood knows it.
	res, err = floodMax(model.NewEngine(h), h, ids, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged >= n || res.Converged < 1 {
		t.Fatalf("1-round flood converged %d of %d", res.Converged, n)
	}
}

func TestFloodMaxValidation(t *testing.T) {
	h := floodHost(8)
	if _, err := floodMax(model.NewEngine(h), h, []int{1, 2}, 4, nil); err == nil {
		t.Error("short id slice accepted")
	}
	if _, err := floodMax(model.NewEngine(h), h, []int{-1, 2, 3, 4, 5, 6, 7, 8}, 4, nil); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := floodMax(model.NewEngine(h), h, []int{1, 2, 3, 4, 5, 6, 7, 8}, 0, nil); err == nil {
		t.Error("zero horizon accepted")
	}
}

// TestFloodMaxFaultyDeterministic: the faulty run is a pure function
// of (host, ids, rounds, profile, seed) — two runs agree exactly.
// Crashed nodes are excluded from convergence.
func TestFloodMaxFaultyDeterministic(t *testing.T) {
	n := 32
	h := floodHost(n)
	ids := rand.New(rand.NewSource(9)).Perm(8 * n)[:n]
	run := func() *FloodMaxResult {
		sched := model.MustParseProfile("crash:f=4,by=2").New(h, 17)
		res, err := floodMax(model.NewEngine(h), h, ids, n, sched)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulty flood not deterministic:\n  %+v\n  %+v", a, b)
	}
	if a.Report.NumCrashed == 0 {
		t.Fatal("crash profile crashed nobody")
	}
	if a.Converged > n-a.Report.NumCrashed {
		t.Fatalf("converged %d > surviving %d", a.Converged, n-a.Report.NumCrashed)
	}
}

// TestFloodMaxResume: checkpoint mid-flood, resume on a fresh engine,
// same result as the uninterrupted run — the workload the CI
// crash-recovery drill kills and restarts.
func TestFloodMaxResume(t *testing.T) {
	n := 32
	h := floodHost(n)
	ids := rand.New(rand.NewSource(9)).Perm(8 * n)[:n]
	sched := func() model.Schedule { return model.MustParseProfile("lossy:p=0.1").New(h, 23) }

	control, err := floodMax(model.NewEngine(h), h, ids, n, sched())
	if err != nil {
		t.Fatal(err)
	}

	var mid []byte
	ck := &model.Checkpointer{Every: n / 2, Sink: func(s *model.Snapshot) error {
		if mid == nil {
			mid = s.Encode()
		}
		return nil
	}}
	if _, err := floodMax(model.NewEngine(h).WithCheckpoints(ck), h, ids, n, sched()); err != nil {
		t.Fatal(err)
	}
	if mid == nil {
		t.Fatal("no checkpoint captured")
	}
	snap, err := model.DecodeSnapshot(mid)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := floodMax(model.NewEngine(h).Resume(snap), h, ids, n, sched())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(control, resumed) {
		t.Fatalf("resumed flood differs:\n  control %+v\n  resumed %+v", control, resumed)
	}
}
