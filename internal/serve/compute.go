package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/algorithms"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/order"
)

// This file is the server's workload layer: each compute function
// resolves the validated request, runs it under the request context
// (so the per-request deadline reaches the round loop and the sweep
// loop) and renders the result as the JSON body that the cache stores
// verbatim. Every computation is
// deterministic in its canonical tuple, which is what makes the
// bodies cacheable forever.

// measureResponse is the body of /v1/measure.
type measureResponse struct {
	Host  string         `json:"host"`
	N     int            `json:"n"`
	M     int            `json:"m"`
	Rmax  int            `json:"rmax"`
	Radii []radiusResult `json:"radii"`
}

type radiusResult struct {
	R        int     `json:"r"`
	Alpha    float64 `json:"alpha"`
	Types    int     `json:"types"`
	Majority int     `json:"majority"`
}

// computeMeasure resolves the host and runs the layered homogeneity
// sweep under the request deadline (vertex-index rank, as the CLIs
// measure).
func computeMeasure(ctx context.Context, hostDesc string, rmax int) ([]byte, error) {
	rh, err := host.Parse(hostDesc)
	if err != nil {
		return nil, err
	}
	homs, err := order.SweepMeasureAllCtx(ctx, rh.G, order.Identity(rh.G.N()), rmax)
	if err != nil {
		return nil, err
	}
	resp := measureResponse{Host: rh.Desc, N: rh.G.N(), M: rh.G.M(), Rmax: rmax}
	for r, hm := range homs {
		resp.Radii = append(resp.Radii, radiusResult{R: r + 1, Alpha: hm.Alpha, Types: len(hm.Counts), Majority: hm.Count})
	}
	return json.Marshal(resp)
}

// runResponse is the body of /v1/run. Fault fields are present only
// on faulty runs (pointers stay nil on clean runs and are omitted).
type runResponse struct {
	Host   string `json:"host"`
	Algo   string `json:"algo"`
	N      int    `json:"n"`
	Seed   int64  `json:"seed"`
	Rounds int    `json:"rounds"`
	// Size is the solution size: |MIS|, |M|, distinct view types, or
	// converged flood nodes.
	Size   int          `json:"size"`
	Faults *faultResult `json:"faults,omitempty"`
	// Sharded is present only on shards= runs.
	Sharded *shardedResult `json:"sharded,omitempty"`
}

// shardedResult summarises a sharded run's exchange plane: shard
// count, resident cross-shard arcs and total words exchanged (the
// per-shard breakdown is on /metrics).
type shardedResult struct {
	P              int   `json:"p"`
	CrossArcs      int64 `json:"cross_arcs"`
	ExchangedWords int64 `json:"exchanged_words"`
}

type faultResult struct {
	Profile    string `json:"profile"`
	Crashed    int    `json:"crashed"`
	Dropped    int64  `json:"dropped"`
	Duplicated int64  `json:"duplicated"`
	Reordered  int64  `json:"reordered"`
	// Violations/Uncovered are Cole–Vishkin survivor-safety counts;
	// Conflicts is the matching's (all 0 for gather).
	Violations int `json:"violations"`
	Uncovered  int `json:"uncovered"`
	Conflicts  int `json:"conflicts"`
}

// computeRun resolves the host (or the synthesized n-node default:
// the directed cycle for cole-vishkin, the port-numbered cycle
// otherwise) and runs the named workload under the request context
// through the shared workload runner, clean or under the fault
// profile.
func computeRun(ctx context.Context, hostDesc, algo string, seed int64, faults string, rmax int) ([]byte, error) {
	rh, err := host.Parse(hostDesc)
	if err != nil {
		return nil, err
	}
	h := modelHost(rh)
	spec := algorithms.Spec{Algo: algo, Rmax: rmax}
	if spec.Sched, err = schedule(faults, h, seed); err != nil {
		return nil, err
	}
	out, err := algorithms.Run(ctx, model.NewEngine(h), h, rand.New(rand.NewSource(seed)), spec)
	if err != nil {
		return nil, err
	}
	return runBody(rh.Desc, algo, h.G.N(), seed, spec, out)
}

// computeRunSharded is the shards= path of /v1/run: a sharded workload
// on model.ShardedEngine, generated shard-locally when the family has
// an implicit source (so descriptors past the flat int32 capacity run
// in bounded resident memory) and adapted from the materialised host
// otherwise. The engine registers with the server's shard gauges, so
// /metrics shows per-shard occupancy and exchange volume while the run
// is in flight and a final snapshot after.
func (s *Server) computeRunSharded(ctx context.Context, hostDesc, algo string, seed int64, faults string, shards int) ([]byte, error) {
	desc := hostDesc
	src, err := host.ParseShard(hostDesc)
	if err != nil {
		rh, perr := host.Parse(hostDesc)
		if perr != nil {
			return nil, fmt.Errorf("%w\n(no implicit shard source either: %v)", perr, err)
		}
		src, desc = model.SourceOf(modelHost(rh)), rh.Desc
	}
	se, err := model.NewShardedEngine(src, shards)
	if err != nil {
		return nil, err
	}
	spec := algorithms.Spec{Algo: algo}
	if faults != "" {
		mh, err := model.MaterializeSource(src)
		if err != nil {
			return nil, fmt.Errorf("faults with shards need a materialisable host (schedules hash global coordinates from a flat host): %w", err)
		}
		if spec.Sched, err = schedule(faults, mh, seed); err != nil {
			return nil, err
		}
	}
	s.shard.track(se, desc)
	completed := false
	defer func() { s.shard.finish(se, desc, completed) }()
	out, err := algorithms.RunSharded(ctx, se, seed, spec)
	if err != nil {
		return nil, err
	}
	completed = true
	return runBody(desc, algo, int(src.N()), seed, spec, out)
}

// modelHost adapts a registry host to the engine, using the family's
// own labelling when it has one.
func modelHost(rh *host.Host) *model.Host {
	if rh.D != nil {
		return &model.Host{D: rh.D, G: rh.G}
	}
	return model.HostFromGraph(rh.G)
}

// schedule binds the faults= descriptor to the host and seed; nil for
// clean runs.
func schedule(faults string, h *model.Host, seed int64) (model.Schedule, error) {
	if faults == "" {
		return nil, nil
	}
	prof, err := model.ParseProfile(faults)
	if err != nil {
		return nil, err
	}
	return prof.New(h, seed), nil
}

// runBody renders a /v1/run response: the fault block on runs under a
// schedule, the sharded block on sharded runs.
func runBody(desc, algo string, n int, seed int64, spec algorithms.Spec, out *algorithms.Outcome) ([]byte, error) {
	resp := runResponse{Host: desc, Algo: algo, N: n, Seed: seed, Rounds: out.Rounds, Size: out.Size}
	if spec.Sched != nil {
		rep := out.Report
		resp.Faults = &faultResult{
			Profile: rep.Profile, Crashed: rep.NumCrashed,
			Dropped: rep.Dropped, Duplicated: rep.Duplicated, Reordered: rep.Reordered,
			Violations: out.Violations, Uncovered: out.Uncovered, Conflicts: out.Conflicts,
		}
	}
	if out.Shards > 0 {
		resp.Sharded = &shardedResult{P: out.Shards, CrossArcs: out.CrossArcs, ExchangedWords: out.ExchangedWords}
	}
	return json.Marshal(resp)
}
