package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/algorithms"
	"repro/internal/digraph"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/view"
)

// item is one localsim scale-mode invocation. The end-to-end run hands
// args() to the localsim binary; the traced run repeats the same
// library calls in-process (traceItem).
type item struct {
	Algo   string
	Host   string
	Seed   int64
	Rmax   int
	Rounds int
	Shards int
}

func (it item) args() []string {
	a := []string{"-algo", it.Algo, "-host", it.Host, "-seed", strconv.FormatInt(it.Seed, 10)}
	if it.Rmax > 0 {
		a = append(a, "-rmax", strconv.Itoa(it.Rmax))
	}
	if it.Rounds > 0 {
		a = append(a, "-rounds", strconv.Itoa(it.Rounds))
	}
	if it.Shards > 0 {
		a = append(a, "-shards", strconv.Itoa(it.Shards))
	}
	return a
}

func (it item) label() string {
	l := it.Algo + " " + it.Host
	if it.Shards > 0 {
		l += fmt.Sprintf(" P=%d", it.Shards)
	}
	return l
}

// answer is what a scale item prints, in the form both parseLocalsim
// and traceItem produce, so the two can be compared field by field.
// Size is |MIS|, |M| or the number of view types, depending on the
// algorithm.
type answer struct {
	Rounds         int
	Size           int64
	Leader         int
	Converged      int
	CrossArcs      int64
	ExchangedWords int64
}

// scaleItems is the item list of a scale workload. Sizes are chosen so
// that construction dominates build_heavy and the per-round step
// dominates rounds_heavy, and small enough for several passes per run
// (see README.md). The seed picks the localsim seed of every item: ids
// and coin flips. The random-regular graph is fixed: the pairing-model
// generator restarts a geometric number of times, so its cost varies
// about sixfold between graph seeds (0.66 s to 3.95 s for n=200000
// over seeds 1-10 on a 2-core VM), which would swamp the run-to-run
// spread. One graph still pays the generator's restarts.
func scaleItems(workload string, seed int64) ([]item, error) {
	g := rand.New(rand.NewSource(seed))
	next := func() int64 { return g.Int63n(1 << 31) }
	switch workload {
	case "build_heavy":
		return []item{
			{Algo: "cole-vishkin", Host: "dcycle:500000", Seed: next()},
			{Algo: "matching", Host: "torus:500x500", Seed: next()},
			{Algo: "matching", Host: "random-regular:d=3,n=100000,seed=1", Seed: next()},
			{Algo: "gather", Host: "torus:200x200", Rmax: 2, Seed: next()},
		}, nil
	case "rounds_heavy":
		return []item{
			{Algo: "flood", Host: "cycle:100000", Rounds: 200, Seed: next()},
			{Algo: "cole-vishkin", Host: "dcycle:1000000", Shards: shardWidth, Seed: next()},
			{Algo: "matching", Host: "torus:700x700", Shards: shardWidth, Seed: next()},
		}, nil
	}
	return nil, fmt.Errorf("%q is not a scale workload", workload)
}

// traceItem repeats localsim's scale-mode calls for it, in localsim's
// order, with a span around each call into a layer. It checks the
// answer as localsim does (feasibility, conflicts) plus the flood
// convergence that parseLocalsim checks on localsim's output.
func traceItem(t *tracer, root int, it item) (answer, error) {
	if it.Shards > 0 {
		return traceSharded(t, root, it)
	}
	var ans answer
	rng := rand.New(rand.NewSource(it.Seed))
	var rh *host.Host
	var err error
	t.call("host.parse", root, func() { rh, err = host.Parse(it.Host) })
	if err != nil {
		return ans, err
	}
	h := &model.Host{D: rh.D, G: rh.G}
	if rh.D == nil {
		t.call("digraph.from_ports", root, func() { h = model.HostFromGraph(rh.G) })
	}
	n := h.G.N()
	drawIDs := func() []int {
		var ids []int
		t.call("ids.draw", root, func() { ids = rng.Perm(8 * n)[:n] })
		return ids
	}
	newEngine := func() *model.WordEngine {
		var e *model.WordEngine
		t.call("model.new_engine", root, func() { e = model.TypedOn[uint64](model.NewEngine(h)) })
		return e
	}
	switch it.Algo {
	case "flood":
		ids := drawIDs()
		e := newEngine()
		var res *algorithms.FloodMaxResult
		sp := t.begin("algorithms.flood", root)
		res, err = algorithms.FloodMaxOn(e, h, ids, it.Rounds)
		t.end(sp)
		if err != nil {
			return ans, err
		}
		t.work(sp, int64(n)*int64(res.Rounds))
		ans.Rounds, ans.Leader, ans.Converged = res.Rounds, res.Leader, res.Converged
		if err := checkFlood(n, it.Rounds, res.Converged); err != nil {
			return ans, err
		}
		maxID := 0
		for _, id := range ids {
			maxID = max(maxID, id)
		}
		if res.Leader != maxID {
			return ans, fmt.Errorf("flood leader %d, want the largest id %d", res.Leader, maxID)
		}
	case "cole-vishkin":
		if !h.D.IsRegularDigraph(1) {
			return ans, fmt.Errorf("cole-vishkin needs a consistently oriented cycle host")
		}
		ids := drawIDs()
		e := newEngine()
		var res *algorithms.ColeVishkinResult
		sp := t.begin("algorithms.cv", root)
		res, err = algorithms.ColeVishkinMISOn(e, h, ids)
		t.end(sp)
		if err != nil {
			return ans, err
		}
		t.work(sp, int64(n)*int64(res.Rounds))
		t.call("problems.feasible", root, func() { err = (problems.MaxIndependentSet{}).Feasible(h.G, res.MIS) })
		if err != nil {
			return ans, fmt.Errorf("solution infeasible: %w", err)
		}
		ans.Rounds, ans.Size = res.Rounds, int64(res.MIS.Size())
	case "matching":
		e := newEngine()
		var sol *model.Solution
		sp := t.begin("algorithms.matching", root)
		sol, err = algorithms.RandomizedMatchingOn(e, h, rng)
		t.end(sp)
		if err != nil {
			return ans, err
		}
		t.work(sp, int64(n)*2)
		t.call("problems.feasible", root, func() { err = (problems.MaxMatching{}).Feasible(h.G, sol) })
		if err != nil {
			return ans, fmt.Errorf("solution infeasible: %w", err)
		}
		ans.Rounds, ans.Size = 2, int64(sol.Size())
	case "gather":
		var states []any
		var rounds int
		t.call("model.gather", root, func() {
			states, rounds, err = model.RunRoundsStates(h, nil, model.GatherViews(it.Rmax), it.Rmax+2)
		})
		if err != nil {
			return ans, err
		}
		types := map[*view.Tree]bool{}
		for _, st := range states {
			types[st.(*model.GatherState).Tree] = true
		}
		ans.Rounds, ans.Size = rounds, int64(len(types))
	default:
		return ans, fmt.Errorf("unknown scale algorithm %q", it.Algo)
	}
	return ans, nil
}

// traceSharded mirrors localsim's -shards path on an implicit shard
// source.
func traceSharded(t *tracer, root int, it item) (answer, error) {
	var ans answer
	var src digraph.Source
	var err error
	t.call("host.parse_shard", root, func() { src, err = host.ParseShard(it.Host) })
	if err != nil {
		return ans, err
	}
	var se *model.ShardedEngine
	t.call("model.new_sharded_engine", root, func() { se, err = model.NewShardedEngine(src, it.Shards) })
	if err != nil {
		return ans, err
	}
	n := src.N()
	switch it.Algo {
	case "cole-vishkin":
		var idf model.IDFunc
		t.call("ids.draw", root, func() { idf = model.SeededIDs(n, it.Seed) })
		var res *algorithms.ShardedCVResult
		sp := t.begin("algorithms.cv_sharded", root)
		res, err = algorithms.ColeVishkinMISSharded(se, idf, int(n-1))
		t.end(sp)
		if err != nil {
			return ans, err
		}
		t.work(sp, n*int64(res.Rounds))
		ans.Rounds, ans.Size = res.Rounds, res.MISSize
	case "matching":
		rng := rand.New(rand.NewSource(it.Seed))
		var res *algorithms.ShardedMatchingResult
		sp := t.begin("algorithms.matching_sharded", root)
		res, err = algorithms.RandomizedMatchingSharded(se, rng)
		t.end(sp)
		if err != nil {
			return ans, err
		}
		t.work(sp, n*2)
		if res.Conflicts != 0 {
			return ans, fmt.Errorf("sharded matching: %d conflicts", res.Conflicts)
		}
		ans.Rounds, ans.Size = 2, res.Matched
	default:
		return ans, fmt.Errorf("-shards runs cole-vishkin and matching only, not %q", it.Algo)
	}
	for _, st := range se.Stats() {
		ans.CrossArcs += st.ExchangeOut
		ans.ExchangedWords += st.Exchanged
	}
	return ans, nil
}

// checkFlood checks FloodMax convergence on a cycle host: after r
// rounds exactly the 2r+1 nodes within distance r of the leader know
// it (all n once 2r+1 >= n).
func checkFlood(n, rounds, converged int) error {
	if want := min(n, 2*rounds+1); converged != want {
		return fmt.Errorf("flood converged at %d nodes, want %d", converged, want)
	}
	return nil
}
