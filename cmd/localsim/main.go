// Command localsim runs a named local algorithm on a named graph
// family in one of the three models and reports solution size,
// optimum, and approximation ratio.
//
// Usage:
//
//	localsim -alg eds-one-out -graph cycle -n 12 [-model po] [-seed 1]
//	localsim -alg eds-all -host torus:6x6
//
// -host accepts any descriptor registered in internal/host (e.g.
// grid3d:3x3x3, margulis-expander:n=6, lift:cycle:9,l=3); it overrides
// -graph/-n/-d, and an unknown descriptor lists the registry.
//
// -rmax R additionally prints the instance's per-radius homogeneity
// table (Def. 3.1) for radii 1..R, measured by ONE layered sweep
// (order.SweepMeasureAll): a single BFS per vertex, canonicalised at
// each layer boundary. A radius outside 1..8 is rejected with the
// valid range.
//
// Algorithms: eds-one-out, eds-all, ec-one-edge, ds-all, vc-all,
// vc-packing (round-based PO), id-greedy-eds, id-nonmin-vc,
// oi-smallest-eds, oi-nonmin-vc, cole-vishkin (directed cycles only).
//
// -algo switches to SCALE MODE: the named workload runs through the
// batched round engine (model.Engine) on a host of -n nodes (or
// -host), reporting rounds, solution size and wall time, and skipping
// the exact optimum — the only super-linear step — so million-node
// runs finish in seconds:
//
//	localsim -algo cole-vishkin -n 1000000
//	localsim -algo matching -host torus:1000x1000
//	localsim -algo gather -n 100000 -rmax 3
//
// Scale-mode workloads are the shared registry of internal/algorithms,
// run by the same runner as /v1/run and jobs: cole-vishkin (ID MIS on
// the directed n-cycle), matching (one round of §6.5 randomized mutual
// proposals), gather (full-information view gathering, radius -rmax or
// 2) and flood (see below). An unknown -algo value lists the registry,
// like -host and -faults.
//
// -faults runs the scale-mode workload under a fault schedule
// (internal/model profiles): messages dropped/duplicated/reordered
// and nodes crashed or churned, deterministically in -seed, with the
// injected-fault counts and survivor-safety checks reported instead
// of the clean feasibility guarantee:
//
//	localsim -algo cole-vishkin -n 100000 -faults lossy:p=0.05
//	localsim -algo matching -host torus:400x250 -faults crash:f=100,by=8
//
// An unknown -faults descriptor lists the valid profile grammar, and
// -faults without -algo is rejected (fault schedules run on the
// engine's message plane only).
//
// -checkpoint DIR makes scale-mode word-lane workloads (cole-vishkin,
// matching, flood) snapshot the engine into DIR every -checkpoint-every
// rounds (content-addressed, hash-verified files), and -resume restarts
// an interrupted run from the latest valid snapshot in DIR instead of
// from round 0 — the same durable format the localapproxd job
// subsystem uses, so results are byte-for-byte what the uninterrupted
// run would have printed:
//
//	localsim -algo flood -n 4096 -rounds 5000 -checkpoint /tmp/ck
//	localsim -algo flood -n 4096 -rounds 5000 -checkpoint /tmp/ck -resume
//
// flood (FloodMax leader election for -rounds rounds) is the
// long-horizon workload built for this: each round is cheap, there are
// many of them, and convergence is checkable at any prefix.
//
// -shards P runs cole-vishkin or matching on the engine with P shards
// (model.NewShardedEngine, DESIGN.md §7): the host is partitioned into P
// contiguous shards, each with its own CSR slice, word-lane arenas and
// worklist, and cross-shard arcs drain through a compact exchange buffer
// at the round barrier. Implicit shard-capable families (cycle, dcycle,
// torus, shift-regular) generate their topology shard-locally, so
// descriptors past the flat int32 capacity run in bounded resident
// memory:
//
//	localsim -algo cole-vishkin -host dcycle:100000000 -shards 16
//	localsim -algo matching -host cycle:100000000 -shards 16
//	localsim -algo cole-vishkin -n 1000000 -shards 4 -faults lossy:p=0.01
//
// P above n runs n shards, and the shards: line reports the count in
// use; P above model.MaxShards is an error. The -shards path draws ids
// with model.SeededIDs and matching proposals from the source rows, so
// its answers are the same at every P, 1 included; fault and snapshot
// coordinates are global, so faulty runs degrade identically at every
// P (they need a materialisable host for the schedule constructor) and
// -checkpoint/-resume work with -shards, even across shard counts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/ckpt"
	"repro/internal/digraph"
	"repro/internal/graph"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/problems"
)

// maxRmax caps the homogeneity radius sweep (see cmd/experiments).
const maxRmax = 8

// usageError marks an error as a usage mistake — an unknown name or
// out-of-range flag, as opposed to a failed computation — so main can
// exit with the conventional status 2. Every usage error carries the
// relevant registry or grammar listing, making the message
// self-repairing: the user's next invocation can be pasted from it.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// usagef formats a usage error.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// exitWith prints the error and exits 2 for usage errors, 1 otherwise.
func exitWith(err error) {
	fmt.Fprintln(os.Stderr, "localsim:", err)
	var ue usageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}

func main() {
	alg := flag.String("alg", "eds-one-out", "algorithm name")
	graphName := flag.String("graph", "cycle", "graph family: cycle|dcycle|petersen|torus|regular|circulant")
	hostDesc := flag.String("host", "", "registry host descriptor (overrides -graph; e.g. torus:6x6)")
	n := flag.Int("n", 12, "instance size")
	d := flag.Int("d", 3, "degree for -graph regular")
	seed := flag.Int64("seed", 1, "seed for random graphs and identifiers")
	rmax := flag.Int("rmax", 0, "also print the per-radius homogeneity table for radii 1..rmax (one layered sweep; unset = off)")
	algo := flag.String("algo", "", "scale mode: run this engine workload (cole-vishkin|matching|gather|flood) at -n / -host, skipping exact optima")
	faults := flag.String("faults", "", "scale mode: run under this fault profile (e.g. lossy:p=0.05, crash:f=100,by=8); unknown descriptors list the grammar")
	rounds := flag.Int("rounds", 0, "scale mode: flood horizon in rounds (flood only; default n)")
	ckptDir := flag.String("checkpoint", "", "scale mode: snapshot the engine into this directory (word-lane workloads)")
	ckptEvery := flag.Int("checkpoint-every", 64, "scale mode: rounds between snapshots (with -checkpoint)")
	resume := flag.Bool("resume", false, "scale mode: resume from the latest valid snapshot in -checkpoint")
	shards := flag.Int("shards", 0, "scale mode: run cole-vishkin/matching on the sharded engine with this many shards (implicit host generation; hosts may exceed the flat int32 capacity)")
	flag.Parse()
	rmaxSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rmax" {
			rmaxSet = true
		}
	})
	if rmaxSet && (*rmax < 1 || *rmax > maxRmax) {
		exitWith(usagef("-rmax %d out of range (valid radii: 1..%d)", *rmax, maxRmax))
	}
	var prof *model.Profile
	if *faults != "" {
		if *algo == "" {
			exitWith(usagef("-faults needs -algo (fault schedules run on the engine's message plane; scale mode only)"))
		}
		var err error
		prof, err = model.ParseProfile(*faults)
		if err != nil {
			exitWith(usageError{err})
		}
	}
	if *ckptDir == "" {
		if *resume {
			exitWith(usagef("-resume needs -checkpoint DIR (nothing to resume from)"))
		}
		if *ckptEvery != 64 {
			exitWith(usagef("-checkpoint-every needs -checkpoint DIR"))
		}
	} else {
		if *algo == "" {
			exitWith(usagef("-checkpoint needs -algo (engine snapshots exist in scale mode only)"))
		}
		if *ckptEvery < 1 {
			exitWith(usagef("-checkpoint-every %d out of range (want >= 1)", *ckptEvery))
		}
	}
	if *shards != 0 {
		if *algo == "" {
			exitWith(usagef("-shards needs -algo (the sharded engine runs scale-mode workloads only)"))
		}
		if *shards < 1 {
			exitWith(usagef("-shards %d out of range (want >= 1)", *shards))
		}
		ck := ckptSpec{dir: *ckptDir, every: *ckptEvery, resume: *resume}
		if err := runScaleSharded(*algo, *hostDesc, *n, *seed, *shards, prof, ck); err != nil {
			exitWith(err)
		}
		return
	}
	if *algo != "" {
		ck := ckptSpec{dir: *ckptDir, every: *ckptEvery, resume: *resume}
		if err := runScale(*algo, *hostDesc, *n, *seed, *rmax, *rounds, prof, ck); err != nil {
			exitWith(err)
		}
		return
	}
	if err := run(*alg, *graphName, *hostDesc, *n, *d, *seed, *rmax); err != nil {
		exitWith(err)
	}
}

// resolveHost parses a registry descriptor into a model host (using
// the family's own labelling when it has one).
func resolveHost(hostDesc string) (*model.Host, string, error) {
	rh, err := host.Parse(hostDesc)
	if err != nil {
		return nil, "", usageError{err}
	}
	if rh.D != nil {
		return &model.Host{D: rh.D, G: rh.G}, rh.Desc, nil
	}
	return model.HostFromGraph(rh.G), rh.Desc, nil
}

// ckptSpec carries the -checkpoint/-checkpoint-every/-resume flags into
// scale mode.
type ckptSpec struct {
	dir    string
	every  int
	resume bool
}

// arm readies a scale-mode engine at any shard count: untouched when
// -checkpoint is unset, snapshotting into the store every ck.every
// rounds when set, and resuming from the latest valid snapshot with
// -resume. Snapshots are in global coordinates, so a run may resume at
// a different -shards than it was checkpointed at.
func (ck ckptSpec) arm(e *model.Engine) (*model.Engine, error) {
	if ck.dir == "" {
		return e, nil
	}
	store, err := ckpt.NewStore(ck.dir, "localsim")
	if err != nil {
		return nil, err
	}
	e = e.WithCheckpoints(&model.Checkpointer{Every: ck.every, Sink: func(s *model.Snapshot) error {
		name, err := store.Write(uint64(s.Round), model.SnapshotKind, s.Encode())
		if err == nil {
			fmt.Fprintf(os.Stderr, "localsim: checkpoint round %d -> %s\n", s.Round, name)
		}
		return err
	}})
	if !ck.resume {
		return e, nil
	}
	seq, payload, ok, err := store.LatestValid(model.SnapshotKind)
	if err != nil {
		return nil, err
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "localsim: no valid snapshot in %s, starting fresh\n", ck.dir)
		return e, nil
	}
	snap, err := model.DecodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot decode: %w", err)
	}
	fmt.Fprintf(os.Stderr, "localsim: resuming from round %d\n", seq)
	return e.Resume(snap), nil
}

// supports refuses -checkpoint for workloads whose run state is not
// the engine's state column.
func (ck ckptSpec) supports(w algorithms.Workload) error {
	if ck.dir != "" && !w.Checkpointed {
		return usagef("-checkpoint does not support %s (its state lives outside the engine's state column)", w.Name)
	}
	return nil
}

// lookupWorkload resolves -algo in the workload registry; an unknown
// name lists it, in the same self-repairing usage style as the host
// registry and the fault-profile grammar.
func lookupWorkload(algo string) (algorithms.Workload, error) {
	w, ok := algorithms.LookupWorkload(algo)
	if !ok {
		return w, usagef("unknown scale workload %q\nscale %s", algo, algorithms.DescribeWorkloads())
	}
	return w, nil
}

// scaleProblems are the problems whose feasibility a clean flat run
// verifies in full before printing "feasible: yes".
var scaleProblems = map[string]problems.Problem{
	"cole-vishkin": problems.MaxIndependentSet{},
	"matching":     problems.MaxMatching{},
}

// runScale is the engine scale mode: workloads that stay linear in the
// host size, so -n 1000000 is a routine run. Exact optima and global
// ratio reporting are skipped; feasibility is still verified in full.
// With a fault profile the workload runs on the faulty message plane
// instead, and the report swaps the feasibility guarantee for the
// injected-fault counts and the survivor-safety checks.
func runScale(algo, hostDesc string, n int, seed int64, rmax, rounds int, prof *model.Profile, ck ckptSpec) error {
	w, err := lookupWorkload(algo)
	if err != nil {
		return err
	}
	if err := ck.supports(w); err != nil {
		return err
	}
	if rounds != 0 && algo != "flood" {
		return usagef("-rounds is the flood horizon; %s derives its own round count", algo)
	}
	rng := rand.New(rand.NewSource(seed))
	var (
		h    *model.Host
		desc string
	)
	switch {
	case hostDesc != "":
		h, desc, err = resolveHost(hostDesc)
	case algo == "cole-vishkin":
		desc = "dcycle"
		h, err = buildHost("dcycle", n, 0, rng)
	default:
		desc = "cycle"
		h, err = buildHost("cycle", n, 0, rng)
	}
	if err != nil {
		return err
	}
	n = h.G.N()
	spec := algorithms.Spec{Algo: algo, Rmax: rmax, Rounds: rounds}
	if prof != nil {
		spec.Sched = prof.New(h, seed)
		fmt.Printf("scale mode: %s on %s (n=%d, m=%d) under faults %s\n", algo, desc, n, h.G.M(), prof.Desc)
	} else {
		fmt.Printf("scale mode: %s on %s (n=%d, m=%d)\n", algo, desc, n, h.G.M())
	}
	start := time.Now()
	e, err := ck.arm(model.NewEngine(h))
	if err != nil {
		return err
	}
	out, err := algorithms.Run(context.Background(), e, h, rng, spec)
	if err != nil {
		return err
	}
	if p := scaleProblems[algo]; p != nil && prof == nil {
		if err := p.Feasible(h.G, out.Solution); err != nil {
			return fmt.Errorf("solution infeasible: %w", err)
		}
	}
	fmt.Println(resultLine(spec, out, int64(n), prof != nil, time.Since(start)))
	return nil
}

// runScaleSharded is the sharded scale mode: sharded workloads on
// the engine from model.NewShardedEngine, with the host generated shard-locally from an
// implicit source when the family has one (so descriptors past the flat
// int32 capacity — dcycle:100000000 and beyond — run in bounded resident
// memory) and adapted from the materialised registry host otherwise.
// Fault schedules keep global (seed, round, slot) coordinates, so a
// sharded faulty run degrades byte-identically to the flat engine; they
// need a materialisable host, since the profile constructor does.
func runScaleSharded(algo, hostDesc string, n int, seed int64, shards int, prof *model.Profile, ck ckptSpec) error {
	w, err := lookupWorkload(algo)
	if err != nil {
		return err
	}
	if !w.Sharded {
		return usagef("-shards does not support %s (sharded workloads: %s)", algo, algorithms.ShardedWorkloads())
	}
	if err := ck.supports(w); err != nil {
		return err
	}
	if hostDesc == "" {
		fam := "cycle"
		if algo == "cole-vishkin" {
			fam = "dcycle"
		}
		hostDesc = fmt.Sprintf("%s:%d", fam, n)
	}
	src, err := host.ParseShard(hostDesc)
	if err != nil {
		// Not an implicit family: any materialisable registry host
		// still runs sharded through the adapter source.
		h, desc, herr := resolveHost(hostDesc)
		if herr != nil {
			return usagef("%v\n(no implicit shard source either: %v)", herr, err)
		}
		src, hostDesc = model.SourceOf(h), desc
	}
	se, err := model.NewShardedEngine(src, shards)
	if err != nil {
		return err
	}
	spec := algorithms.Spec{Algo: algo}
	if prof != nil {
		h, err := model.MaterializeSource(src)
		if err != nil {
			return fmt.Errorf("-faults with -shards needs a materialisable host (fault schedules hash global coordinates from a flat host): %w", err)
		}
		spec.Sched = prof.New(h, seed)
		fmt.Printf("sharded scale mode: %s on %s (n=%d, P=%d) under faults %s\n", algo, hostDesc, src.N(), se.Shards(), prof.Desc)
	} else {
		fmt.Printf("sharded scale mode: %s on %s (n=%d, P=%d)\n", algo, hostDesc, src.N(), se.Shards())
	}
	start := time.Now()
	if se, err = ck.arm(se); err != nil {
		return err
	}
	out, err := algorithms.RunSharded(context.Background(), se, seed, spec)
	if err != nil {
		return err
	}
	fmt.Println(resultLine(spec, out, src.N(), prof != nil, time.Since(start)))
	fmt.Printf("shards: %d   cross-shard arcs: %d   exchanged words: %d\n", out.Shards, out.CrossArcs, out.ExchangedWords)
	return nil
}

// resultLine renders a scale-mode result line: the workload's size,
// then the injected-fault counts and survivor-safety checks under
// -faults, or the clean quality fields otherwise.
func resultLine(spec algorithms.Spec, out *algorithms.Outcome, n int64, faulty bool, wall time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds: %d   ", out.Rounds)
	sizeName := "|MIS|"
	switch spec.Algo {
	case "matching":
		sizeName = "|M|"
		fmt.Fprintf(&b, "|M| = %d", out.Size)
	case "gather":
		fmt.Fprintf(&b, "radius-%d view types: %d", spec.Radius(), out.Size)
	case "flood":
		fmt.Fprintf(&b, "leader: %d   converged@: %d", out.Leader, out.Size)
	default:
		fmt.Fprintf(&b, "|MIS| = %d", out.Size)
	}
	switch {
	case faulty:
		fmt.Fprintf(&b, "   crashed: %d   dropped: %d", out.Report.NumCrashed, out.Report.Dropped)
		switch spec.Algo {
		case "cole-vishkin":
			fmt.Fprintf(&b, "   violations: %d   uncovered: %d", out.Violations, out.Uncovered)
		case "matching":
			fmt.Fprintf(&b, "   conflicts: %d", out.Conflicts)
		}
	case scaleProblems[spec.Algo] != nil:
		fmt.Fprintf(&b, "   %s/n = %.4f", sizeName, float64(out.Size)/float64(n))
		if out.Shards > 0 && spec.Algo == "matching" {
			fmt.Fprintf(&b, "   conflicts: %d", out.Conflicts)
		} else {
			b.WriteString("   feasible: yes")
		}
	}
	fmt.Fprintf(&b, "   wall: %s", wall.Round(time.Millisecond))
	return b.String()
}

// algNames lists the classic-mode algorithms, for unknown -alg errors.
var algNames = []string{
	"eds-one-out", "eds-all", "ec-one-edge", "ds-all", "vc-all",
	"vc-packing", "id-greedy-eds", "id-nonmin-vc", "oi-smallest-eds",
	"oi-nonmin-vc", "cole-vishkin",
}

func run(algName, graphName, hostDesc string, n, d int, seed int64, rmax int) error {
	rng := rand.New(rand.NewSource(seed))
	var (
		h   *model.Host
		err error
	)
	if hostDesc != "" {
		h, graphName, err = resolveHost(hostDesc)
	} else {
		h, err = buildHost(graphName, n, d, rng)
	}
	if err != nil {
		return err
	}
	ids := model.PermIDs(rng, h.G.N(), 8*h.G.N())
	rank := order.Identity(h.G.N())

	var (
		sol  *model.Solution
		prob problems.Problem
	)
	switch algName {
	case "eds-one-out":
		prob = problems.MinEdgeDominatingSet{}
		sol, err = model.RunPO(h, algorithms.EDSOneOut(), model.EdgeKind)
	case "eds-all":
		prob = problems.MinEdgeDominatingSet{}
		sol, err = model.RunPO(h, algorithms.EDSAll(), model.EdgeKind)
	case "ec-one-edge":
		prob = problems.MinEdgeCover{}
		sol, err = model.RunPO(h, algorithms.ECOneEdge(), model.EdgeKind)
	case "ds-all":
		prob = problems.MinDominatingSet{}
		sol, err = model.RunPO(h, algorithms.DSAll(), model.VertexKind)
	case "vc-all":
		prob = problems.MinVertexCover{}
		sol, err = model.RunPO(h, algorithms.VCAll(), model.VertexKind)
	case "vc-packing":
		prob = problems.MinVertexCover{}
		var res *algorithms.VCEdgePackingResult
		res, err = algorithms.VCEdgePacking(h)
		if err == nil {
			sol = res.Cover
			fmt.Printf("bargaining rounds: %d\n", res.Rounds)
		}
	case "id-greedy-eds":
		prob = problems.MinEdgeDominatingSet{}
		sol, err = model.RunID(h, ids, algorithms.IDGreedyEDS(), model.EdgeKind)
	case "id-nonmin-vc":
		prob = problems.MinVertexCover{}
		sol, err = model.RunID(h, ids, algorithms.IDNonMinimumVC(), model.VertexKind)
	case "oi-smallest-eds":
		prob = problems.MinEdgeDominatingSet{}
		sol, err = model.RunOI(h, rank, algorithms.OISmallestNeighborEDS(), model.EdgeKind)
	case "oi-nonmin-vc":
		prob = problems.MinVertexCover{}
		sol, err = model.RunOI(h, rank, algorithms.OILocalMinJoinsVC(), model.VertexKind)
	case "cole-vishkin":
		prob = problems.MaxIndependentSet{}
		var res *algorithms.ColeVishkinResult
		res, err = algorithms.ColeVishkinMIS(h, ids)
		if err == nil {
			sol = res.MIS
			fmt.Printf("rounds: %d (O(log* n) colour reduction + O(1) cleanup)\n", res.Rounds)
		}
	default:
		return usagef("unknown algorithm %q\nalgorithms: %s", algName, strings.Join(algNames, ", "))
	}
	if err != nil {
		return err
	}
	if err := prob.Feasible(h.G, sol); err != nil {
		return fmt.Errorf("solution infeasible: %w", err)
	}
	opt, err := prob.Optimum(h.G)
	if err != nil {
		return err
	}
	ratio, err := problems.Ratio(prob, h.G, sol)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s (n=%d, m=%d, Δ=%d)\n", graphName, h.G.N(), h.G.M(), h.G.MaxDegree())
	fmt.Printf("problem: %s   |solution| = %d   optimum = %d   ratio = %.4f\n",
		prob.Name(), sol.Size(), opt, ratio)
	fmt.Printf("locally verified (PO-checkable): %v\n", problems.VerifyLocally(prob, h.G, sol))
	if rmax >= 1 {
		fmt.Printf("homogeneity under the vertex-index order (one layered sweep, radii 1..%d):\n", rmax)
		fmt.Printf("  %-3s %-10s %-7s %s\n", "r", "max α", "types", "majority count")
		for r, hm := range order.SweepMeasureAll(h.G, rank, rmax) {
			fmt.Printf("  %-3d %-10.4f %-7d %d/%d\n", r+1, hm.Alpha, len(hm.Counts), hm.Count, hm.N)
		}
	}
	return nil
}

func buildHost(name string, n, d int, rng *rand.Rand) (*model.Host, error) {
	switch name {
	case "cycle":
		g := graph.Cycle(n)
		orient, err := digraph.EulerianOrientation(g)
		if err != nil {
			return nil, err
		}
		return model.NewHost(digraph.FromPorts(g, orient).D)
	case "dcycle":
		return model.NewHost(digraph.DirectedCycle(n))
	case "petersen":
		return model.HostFromGraph(graph.Petersen()), nil
	case "torus":
		side := 3
		for side*side < n {
			side++
		}
		g := graph.Torus(side, side)
		orient, err := digraph.EulerianOrientation(g)
		if err != nil {
			return nil, err
		}
		return model.NewHost(digraph.FromPorts(g, orient).D)
	case "regular":
		return model.HostFromGraph(graph.RandomRegular(n, d, rng)), nil
	case "circulant":
		return model.HostFromGraph(graph.Circulant(n, 1, 2)), nil
	default:
		return nil, usagef("unknown graph %q\ngraph families: cycle, dcycle, petersen, torus, regular, circulant (or any -host descriptor)", name)
	}
}
