package algorithms

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/problems"
)

// TestRandomizedMatchingFaultyClean: the core's nil schedule reproduces
// RandomizedMatching for the same rng stream, with the all-zero
// "clean" report.
func TestRandomizedMatchingFaultyClean(t *testing.T) {
	h := model.HostFromGraph(graph.Torus(8, 8))
	want := RandomizedMatching(h, rand.New(rand.NewSource(4)))
	res, err := randomizedMatching(model.NewWordEngine(h), h, rand.New(rand.NewSource(4)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsEqual(want, res.Matching) {
		t.Error("clean core matching differs from RandomizedMatching")
	}
	if res.Report.Profile != "clean" || res.Report.Dropped != 0 || res.Conflicts != 0 {
		t.Errorf("clean report: %+v conflicts=%d", res.Report, res.Conflicts)
	}
}

// TestRandomizedMatchingFaultyDegrades: under every profile the output
// stays a feasible matching — loss only shrinks it. Failures print
// the reproducer (seed, profile).
func TestRandomizedMatchingFaultyDegrades(t *testing.T) {
	h := model.HostFromGraph(graph.Torus(10, 10))
	clean := RandomizedMatching(h, rand.New(rand.NewSource(4)))
	for _, profile := range []string{"lossy:p=0.3", "dup+reorder", "crash:f=10,by=1", "churn:p=0.3,window=1", "adversarial:p=0.2,f=5,by=1"} {
		sched := model.MustParseProfile(profile).New(h, 6)
		res, err := randomizedMatching(model.NewWordEngine(h), h, rand.New(rand.NewSource(4)), sched)
		if err != nil {
			t.Fatalf("%v — reproducer (seed 6, profile %q)", err, profile)
		}
		if res.Conflicts != 0 {
			t.Errorf("%d conflicts — reproducer (seed 6, profile %q)", res.Conflicts, profile)
		}
		if err := (problems.MaxMatching{}).Feasible(h.G, res.Matching); err != nil {
			t.Errorf("infeasible matching: %v — reproducer (seed 6, profile %q)", err, profile)
		}
		if res.Matching.Size() > clean.Size() {
			t.Errorf("faulty matching larger than clean (%d > %d) — reproducer (seed 6, profile %q)",
				res.Matching.Size(), clean.Size(), profile)
		}
	}
	// Heavy loss must actually cost edges.
	sched := model.MustParseProfile("lossy:p=0.5").New(h, 6)
	res, err := randomizedMatching(model.NewWordEngine(h), h, rand.New(rand.NewSource(4)), sched)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matching.Size() >= clean.Size() {
		t.Errorf("p=0.5 loss kept the full matching (%d vs clean %d)", res.Matching.Size(), clean.Size())
	}
}

// TestColeVishkinFaultyCleanAndCrash: the core's nil schedule
// reproduces ColeVishkinMIS with zero safety counts; a crash schedule keeps the
// survivor-induced output safe when the crashes happen after the
// colour reduction cannot be disturbed (crash-stop loses messages,
// but the survivors' sweep only ever abstains, never collides, on a
// cycle with both neighbours reporting).
func TestColeVishkinFaultyCleanAndCrash(t *testing.T) {
	n := 64
	h := dcycleHost(t, n)
	ids := rand.New(rand.NewSource(1)).Perm(4 * n)[:n]
	clean, err := ColeVishkinMIS(h, ids)
	if err != nil {
		t.Fatal(err)
	}
	res, err := coleVishkin(model.NewWordEngine(h), h, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsEqual(clean.MIS, res.MIS) || res.Violations != 0 || res.Uncovered != 0 {
		t.Errorf("clean faulty CV differs: violations=%d uncovered=%d", res.Violations, res.Uncovered)
	}
	if res.Rounds != clean.Rounds {
		t.Errorf("clean faulty CV rounds %d vs %d", res.Rounds, clean.Rounds)
	}

	crash, err := coleVishkin(model.NewWordEngine(h), h, ids, model.MustParseProfile("crash:f=6,by=4").New(h, 9))
	if err != nil {
		t.Fatal(err)
	}
	if crash.Report.NumCrashed != 6 {
		t.Errorf("crashed %d nodes, want 6", crash.Report.NumCrashed)
	}
	for v := 0; v < n; v++ {
		if crash.Report.CrashedNode(v) && crash.MIS.Vertices[v] {
			t.Errorf("crashed node %d reported as MIS member", v)
		}
	}
	// Heavy loss on the colour exchange must produce measurable safety
	// degradation (that is the E17 curve).
	lossy, err := coleVishkin(model.NewWordEngine(h), h, ids, model.MustParseProfile("lossy:p=0.3").New(h, 9))
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Violations == 0 && lossy.Uncovered == 0 {
		t.Error("p=0.3 loss left the MIS fully safe — degradation not observable")
	}
	if lossy.Report.Dropped == 0 {
		t.Error("lossy run dropped nothing")
	}
}

// stallSchedule holds node 0 transiently down in every round without
// ever crashing it — the engine keeps waiting for it, so any
// algorithm with a finite round budget must surface a non-halt error
// carrying this profile string.
type stallSchedule struct{}

func (stallSchedule) String() string { return "stall:node=0" }

func (stallSchedule) Fate(int, int32) model.Fate { return model.Deliver }

func (stallSchedule) State(round int, v int32) model.NodeState {
	if v == 0 {
		return model.StateDown
	}
	return model.StateUp
}

func (stallSchedule) Reorder(int, int32) uint64 { return 0 }

// TestColeVishkinFaultyRejects: a run under a schedule shares the clean
// entry's instance validation — every malformed instance is rejected
// before any rounds run, with the same error text.
func TestColeVishkinFaultyRejects(t *testing.T) {
	sched := model.MustParseProfile("lossy:p=0.1").New(dcycleHost(t, 8), 1)
	for _, c := range []struct {
		name string
		h    *model.Host
		ids  []int
		want string
	}{
		{"non-cycle", model.HostFromGraph(graph.Petersen()), make([]int, 10), "consistently oriented cycle"},
		{"ids-length", dcycleHost(t, 8), []int{1, 2}, "2 ids for 8 nodes"},
		{"negative-id", dcycleHost(t, 8), []int{0, 1, 2, 3, 4, 5, 6, -3}, "negative id -3"},
		{"id-overflow", dcycleHost(t, 8), []int{0, 1, 2, 3, 4, 5, 6, 1 << 62}, "exceeds the 62-bit colour lane"},
	} {
		if _, err := coleVishkin(model.NewWordEngine(c.h), c.h, c.ids, sched); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
		// The clean entry must agree (same plan, same message).
		if _, err := ColeVishkinMIS(c.h, c.ids); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: clean entry error %v does not mention %q", c.name, err, c.want)
		}
	}
}

// TestFaultyTwinsNonHalt: a schedule that stalls one node forever
// exhausts the fault slack; both cores must surface the engine's
// non-halt error, wrapped with their own prefix and carrying the
// schedule's profile descriptor for reproduction.
func TestFaultyTwinsNonHalt(t *testing.T) {
	n := 8
	h := dcycleHost(t, n)
	ids := rand.New(rand.NewSource(1)).Perm(4 * n)[:n]
	_, err := coleVishkin(model.NewWordEngine(h), h, ids, stallSchedule{})
	if err == nil {
		t.Fatal("stalled Cole–Vishkin halted")
	}
	for _, want := range []string{"algorithms: Cole–Vishkin:", "did not halt", "[stall:node=0]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("CV error %q does not mention %q", err, want)
		}
	}
	th := model.HostFromGraph(graph.Torus(4, 4))
	_, err = randomizedMatching(model.NewWordEngine(th), th, rand.New(rand.NewSource(2)), stallSchedule{})
	if err == nil {
		t.Fatal("stalled matching halted")
	}
	for _, want := range []string{"algorithms: randomized matching:", "did not halt", "[stall:node=0]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("matching error %q does not mention %q", err, want)
		}
	}
}
