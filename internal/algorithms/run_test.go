package algorithms

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
)

// TestRunMatchesCores: the runner is the cores plus its documented
// defaults — ids rng.Perm(8n)[:n] from the caller's rng, proposals
// from the same rng, gather radius 2, flood horizon n — clean and
// under a schedule.
func TestRunMatchesCores(t *testing.T) {
	ctx := context.Background()
	cyc := dcycleHost(t, 64)
	torus := model.HostFromGraph(graph.Torus(8, 8))
	for _, profile := range []string{"clean", "lossy:p=0.1", "crash:f=5,by=3"} {
		cs := model.MustParseProfile(profile).New(cyc, 5)
		ts := model.MustParseProfile(profile).New(torus, 5)
		rng := func() *rand.Rand { return rand.New(rand.NewSource(9)) }
		ids := func(n int) []int { return rng().Perm(8 * n)[:n] }

		out, err := Run(ctx, model.NewEngine(cyc), cyc, rng(), Spec{Algo: "cole-vishkin", Sched: cs})
		if err != nil {
			t.Fatal(err)
		}
		cv, err := coleVishkin(model.NewWordEngine(cyc), cyc, ids(64), cs)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds != cv.Rounds || out.Size != cv.MIS.Size() || out.Violations != cv.Violations ||
			out.Uncovered != cv.Uncovered || out.Report.Dropped != cv.Report.Dropped || out.Shards != 0 {
			t.Errorf("%s: cole-vishkin outcome %+v differs from the core %+v", profile, out, cv)
		}

		out, err = Run(ctx, model.NewEngine(torus), torus, rng(), Spec{Algo: "matching", Sched: ts})
		if err != nil {
			t.Fatal(err)
		}
		m, err := randomizedMatching(model.NewWordEngine(torus), torus, rng(), ts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds != 2 || out.Size != m.Matching.Size() || out.Conflicts != m.Conflicts || !solutionsEqual(out.Solution, m.Matching) {
			t.Errorf("%s: matching outcome %+v differs from the core %+v", profile, out, m)
		}

		out, err = Run(ctx, model.NewEngine(torus), torus, rng(), Spec{Algo: "flood", Sched: ts})
		if err != nil {
			t.Fatal(err)
		}
		f, err := floodMax(model.NewWordEngine(torus), torus, ids(64), 64, ts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds != f.Rounds || out.Size != f.Converged || out.Leader != f.Leader {
			t.Errorf("%s: flood outcome %+v differs from the core %+v", profile, out, f)
		}

		out, err = Run(ctx, model.NewEngine(torus), torus, rng(), Spec{Algo: "gather", Sched: ts})
		if err != nil {
			t.Fatal(err)
		}
		trees, rounds, rep, err := model.Gather(model.NewEngine(torus), 2, model.Budget(4, ts), ts)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds != rounds || out.Size != model.ViewTypes(trees, rep) {
			t.Errorf("%s: gather outcome %+v differs from Gather (%d rounds, %d types)", profile, out, rounds, model.ViewTypes(trees, rep))
		}
		if out.Report.Profile != profile {
			t.Errorf("%s: report profile %q", profile, out.Report.Profile)
		}
	}
}

// TestRunShardedMatchesCores: RunSharded is the sharded cores with
// SeededIDs and a seed-derived rng, and reports the shard count in use
// (capped at n) with the exchange totals.
func TestRunShardedMatchesCores(t *testing.T) {
	ctx := context.Background()
	cyc := dcycleHost(t, 48)
	sched := model.MustParseProfile("lossy:p=0.1").New(cyc, 3)
	for _, sc := range []model.Schedule{nil, sched} {
		se, err := model.NewShardedEngine(model.SourceOf(cyc), 3)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunSharded(ctx, se, 7, Spec{Algo: "cole-vishkin", Sched: sc})
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := model.NewShardedEngine(model.SourceOf(cyc), 3)
		cv, err := coleVishkinSharded(ref, model.SeededIDs(48, 7), 47, sc)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rounds != cv.Rounds || out.Size != int(cv.MISSize) || out.Violations != int(cv.Violations) || out.Shards != 3 {
			t.Errorf("sharded cole-vishkin outcome %+v differs from the core %+v", out, cv)
		}
		var arcs int64
		for _, st := range ref.Stats() {
			arcs += st.ExchangeOut
		}
		if out.CrossArcs != arcs || out.ExchangedWords == 0 {
			t.Errorf("exchange totals %d/%d, want %d cross arcs", out.CrossArcs, out.ExchangedWords, arcs)
		}
	}
	torus := model.HostFromGraph(graph.Torus(4, 4))
	se, err := model.NewShardedEngine(model.SourceOf(torus), 64)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunSharded(ctx, se, 2, Spec{Algo: "matching"})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := model.NewShardedEngine(model.SourceOf(torus), 64)
	m, err := randomizedMatchingSharded(ref, rand.New(rand.NewSource(2)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size != int(m.Matched) || out.Shards != 16 || out.Report.Profile != "clean" {
		t.Errorf("sharded matching outcome %+v, want size %d on 16 shards", out, m.Matched)
	}
}

// TestRunRegistry: every registered workload runs on the flat plane,
// exactly the Sharded ones on the sharded plane, and unknown or
// unsharded names fail with the listing.
func TestRunRegistry(t *testing.T) {
	ctx := context.Background()
	h := dcycleHost(t, 16)
	listing := DescribeWorkloads()
	for _, w := range Workloads {
		if got, ok := LookupWorkload(w.Name); !ok || got != w {
			t.Errorf("LookupWorkload(%q) = %+v, %v", w.Name, got, ok)
		}
		if !strings.Contains(listing, w.Name) {
			t.Errorf("listing misses %q:\n%s", w.Name, listing)
		}
		if _, err := Run(ctx, model.NewEngine(h), h, rand.New(rand.NewSource(1)), Spec{Algo: w.Name}); err != nil {
			t.Errorf("flat %s: %v", w.Name, err)
		}
		se, err := model.NewShardedEngine(model.SourceOf(h), 2)
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunSharded(ctx, se, 1, Spec{Algo: w.Name})
		if w.Sharded != (err == nil) {
			t.Errorf("sharded %s: err %v, registry says Sharded=%v", w.Name, err, w.Sharded)
		}
		if err != nil && !strings.Contains(err.Error(), ShardedWorkloads()) {
			t.Errorf("sharded %s: error %q does not list the sharded workloads", w.Name, err)
		}
	}
	if _, ok := LookupWorkload("nosuch"); ok {
		t.Error("nosuch found")
	}
	if _, err := Run(ctx, model.NewEngine(h), h, rand.New(rand.NewSource(1)), Spec{Algo: "nosuch"}); err == nil || !strings.Contains(err.Error(), "workloads:") {
		t.Errorf("unknown workload error %v lacks the listing", err)
	}
	if got := (Spec{}).Radius(); got != 2 {
		t.Errorf("default radius %d, want 2", got)
	}
	if got := (Spec{Rmax: 3}).Radius(); got != 3 {
		t.Errorf("radius %d, want 3", got)
	}
}

// TestRunArmsContext: the runner arms the caller's context on the
// plane, so a cancelled context aborts the run with an error wrapping
// context.Canceled, on both planes.
func TestRunArmsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := dcycleHost(t, 32)
	_, err := Run(ctx, model.NewEngine(h), h, rand.New(rand.NewSource(1)), Spec{Algo: "flood"})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("flat: err %v, want context.Canceled", err)
	}
	se, err := model.NewShardedEngine(model.SourceOf(h), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSharded(ctx, se, 1, Spec{Algo: "matching"}); !errors.Is(err, context.Canceled) {
		t.Errorf("sharded: err %v, want context.Canceled", err)
	}
}
