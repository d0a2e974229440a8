package job

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"repro/internal/algorithms"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/order"
	"repro/internal/problems"
)

// This file is the workload layer of the job subsystem: each runner
// resolves a validated spec into the repo's engine entry points (the
// On variants, so the runner controls engine arming), wires the
// checkpoint cadence into the job's on-disk store, arms a resume
// snapshot when the store holds one, and renders a deterministic JSON
// result. Result bytes are a pure function of the spec — no
// timestamps, no attempt counters — so an interrupted-and-resumed job
// produces the same bytes as an uninterrupted control run.

// attempt is one execution of a job: the runner's handle to the
// cancellation context, the checkpoint store, and the
// progress/watchdog plumbing. every > 0 checkpoints periodically,
// every == 0 only on RequestNow (watchdog/drain), every < 0 disables
// checkpointing entirely.
type attempt struct {
	ctx      context.Context
	store    *ckpt.Store
	every    int
	progress func(done, total int)
	noteCkpt func()

	mu sync.Mutex
	ck *model.Checkpointer
}

func (a *attempt) arm(ck *model.Checkpointer) {
	a.mu.Lock()
	a.ck = ck
	a.mu.Unlock()
}

// checkpointNow asks the in-flight engine (if any) to snapshot at its
// next round barrier — the capture half of checkpoint-then-preempt.
// The caller cancels the attempt's context right after; the engine
// reaches the barrier, writes the snapshot, then observes the dead
// context at the next round boundary.
func (a *attempt) checkpointNow() {
	a.mu.Lock()
	ck := a.ck
	a.mu.Unlock()
	if ck != nil {
		ck.RequestNow()
	}
}

// engineCheckpointer builds the store-backed sink for engine jobs.
// The sequence number is the snapshot's next round, so a resumed run
// re-writes the same content-addressed file names it would have
// written uninterrupted (idempotent overwrite, byte-identical).
func (a *attempt) engineCheckpointer(total int) *model.Checkpointer {
	ck := &model.Checkpointer{Every: a.every, Sink: func(s *model.Snapshot) error {
		if _, err := a.store.Write(uint64(s.Round), model.SnapshotKind, s.Encode()); err != nil {
			return err
		}
		a.noteCkpt()
		a.progress(s.Round, total)
		return nil
	}}
	a.arm(ck)
	return ck
}

// wordEngine builds the context-armed word engine for an engine job,
// with checkpointing into the store and resume from the latest valid
// snapshot when one exists. Corrupt or truncated snapshot files fail
// the container hash and are skipped by LatestValid, falling back to
// the previous checkpoint (or a fresh start).
func (a *attempt) wordEngine(h *model.Host, total int) (*model.WordEngine, error) {
	e := model.TypedOn[uint64](model.NewEngine(h).WithContext(a.ctx))
	if a.every < 0 {
		return e, nil
	}
	e = e.WithCheckpoints(a.engineCheckpointer(total))
	_, payload, ok, err := a.store.LatestValid(model.SnapshotKind)
	if err != nil || !ok {
		return e, err
	}
	snap, err := model.DecodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("job: checkpoint decode: %w", err)
	}
	return e.Resume(snap), nil
}

// resolveHost parses the descriptor into an engine host (identical to
// the synchronous /v1/run path).
func resolveHost(desc string) (*model.Host, string, error) {
	rh, err := host.Parse(desc)
	if err != nil {
		return nil, "", err
	}
	if rh.D != nil {
		return &model.Host{D: rh.D, G: rh.G}, rh.Desc, nil
	}
	return model.HostFromGraph(rh.G), rh.Desc, nil
}

// seed normalises the spec seed (0 means 1, matching canonical()).
func (s *Spec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// schedule builds the fault schedule, or nil for clean runs.
func (s *Spec) schedule(h *model.Host) (model.Schedule, string, error) {
	if s.Faults == "" {
		return nil, "", nil
	}
	prof, err := model.ParseProfile(s.Faults)
	if err != nil {
		return nil, "", err
	}
	return prof.New(h, s.seed()), prof.Desc, nil
}

// faultSummary is the fault block of job results (present only on
// faulty runs).
type faultSummary struct {
	Profile    string `json:"profile"`
	Crashed    int    `json:"crashed"`
	Dropped    int64  `json:"dropped"`
	Duplicated int64  `json:"duplicated"`
	Reordered  int64  `json:"reordered"`
	Violations int    `json:"violations,omitempty"`
	Uncovered  int    `json:"uncovered,omitempty"`
	Conflicts  int    `json:"conflicts,omitempty"`
}

func summarise(profile string, rep *model.FaultReport) *faultSummary {
	return &faultSummary{
		Profile: profile, Crashed: rep.NumCrashed,
		Dropped: rep.Dropped, Duplicated: rep.Duplicated, Reordered: rep.Reordered,
	}
}

// runSpec dispatches a validated spec to its workload runner.
func runSpec(a *attempt, spec Spec) ([]byte, error) {
	switch spec.Kind {
	case "flood":
		return runFlood(a, spec)
	case "run":
		return runEngineWorkload(a, spec)
	case "measure":
		return runMeasure(a, spec)
	case "certify":
		return runCertify(a, spec)
	}
	return nil, fmt.Errorf("job: unknown kind %q", spec.Kind)
}

// floodResult is the result body of flood jobs.
type floodResult struct {
	Kind      string        `json:"kind"`
	Host      string        `json:"host"`
	N         int           `json:"n"`
	Seed      int64         `json:"seed"`
	Horizon   int           `json:"horizon"`
	Rounds    int           `json:"rounds"`
	Leader    int           `json:"leader"`
	Converged int           `json:"converged"`
	Faults    *faultSummary `json:"faults,omitempty"`
}

// runFlood is the long-horizon crash-drill workload: FloodMax for the
// spec's horizon, checkpointing every cadence rounds.
func runFlood(a *attempt, spec Spec) ([]byte, error) {
	h, desc, err := resolveHost(spec.Host)
	if err != nil {
		return nil, err
	}
	n := h.G.N()
	ids := rand.New(rand.NewSource(spec.seed())).Perm(8 * n)[:n]
	sched, prof, err := spec.schedule(h)
	if err != nil {
		return nil, err
	}
	e, err := a.wordEngine(h, spec.Rounds)
	if err != nil {
		return nil, err
	}
	var res *algorithms.FloodMaxResult
	if sched != nil {
		res, err = algorithms.FloodMaxFaultyOn(e, h, ids, spec.Rounds, sched)
	} else {
		res, err = algorithms.FloodMaxOn(e, h, ids, spec.Rounds)
	}
	if err != nil {
		return nil, err
	}
	out := floodResult{
		Kind: "flood", Host: desc, N: n, Seed: spec.seed(), Horizon: spec.Rounds,
		Rounds: res.Rounds, Leader: res.Leader, Converged: res.Converged,
	}
	if res.Report != nil {
		out.Faults = summarise(prof, res.Report)
	}
	a.progress(spec.Rounds, spec.Rounds)
	return json.Marshal(&out)
}

// runResult is the result body of run jobs (mirrors /v1/run).
type runResult struct {
	Kind   string        `json:"kind"`
	Host   string        `json:"host"`
	Algo   string        `json:"algo"`
	N      int           `json:"n"`
	Seed   int64         `json:"seed"`
	Rounds int           `json:"rounds"`
	Size   int           `json:"size"`
	Faults *faultSummary `json:"faults,omitempty"`
}

// gatherFaultSlack mirrors the synchronous run path.
const gatherFaultSlack = 256

// runEngineWorkload runs the /v1/run workloads as durable jobs. The
// word-lane workloads (cole-vishkin, matching) checkpoint and resume
// through the engine's default uint64 codec; gather's view trees live
// outside the engine's state column and are not snapshotted, so gather
// jobs restart from scratch after a crash instead of resuming.
func runEngineWorkload(a *attempt, spec Spec) ([]byte, error) {
	h, desc, err := resolveHost(spec.Host)
	if err != nil {
		return nil, err
	}
	n := h.G.N()
	rng := rand.New(rand.NewSource(spec.seed()))
	sched, prof, err := spec.schedule(h)
	if err != nil {
		return nil, err
	}
	out := runResult{Kind: "run", Host: desc, Algo: spec.Algo, N: n, Seed: spec.seed()}
	switch spec.Algo {
	case "cole-vishkin":
		ids := rng.Perm(8 * n)[:n]
		e, err := a.wordEngine(h, 0)
		if err != nil {
			return nil, err
		}
		if sched != nil {
			res, err := algorithms.ColeVishkinMISFaultyOn(e, h, ids, sched)
			if err != nil {
				return nil, err
			}
			out.Rounds, out.Size = res.Rounds, res.MIS.Size()
			out.Faults = summarise(prof, res.Report)
			out.Faults.Violations, out.Faults.Uncovered = res.Violations, res.Uncovered
		} else {
			res, err := algorithms.ColeVishkinMISOn(e, h, ids)
			if err != nil {
				return nil, err
			}
			out.Rounds, out.Size = res.Rounds, res.MIS.Size()
		}
	case "matching":
		e, err := a.wordEngine(h, 0)
		if err != nil {
			return nil, err
		}
		if sched != nil {
			res, err := algorithms.RandomizedMatchingFaultyOn(e, h, rng, sched)
			if err != nil {
				return nil, err
			}
			out.Rounds, out.Size = 2, res.Matching.Size()
			out.Faults = summarise(prof, res.Report)
			out.Faults.Conflicts = res.Conflicts
		} else {
			sol, err := algorithms.RandomizedMatchingOn(e, h, rng)
			if err != nil {
				return nil, err
			}
			out.Rounds, out.Size = 2, sol.Size()
		}
	case "gather":
		r := spec.Rmax
		if r < 1 {
			r = 2
		}
		maxRounds := r + 2
		if sched != nil {
			maxRounds += gatherFaultSlack
		}
		trees, rounds, rep, err := model.Gather(a.ctx, h, r, maxRounds, sched)
		if err != nil {
			return nil, err
		}
		out.Rounds, out.Size = rounds, model.ViewTypes(trees, rep)
		if sched != nil {
			out.Faults = summarise(prof, rep)
		}
	default:
		return nil, fmt.Errorf("job: unknown run workload %q", spec.Algo)
	}
	return json.Marshal(&out)
}

// measureResult is the result body of measure jobs (mirrors
// /v1/measure). Sweeps have no checkpoint support; crashed measure
// jobs restart from scratch.
type measureResult struct {
	Kind  string        `json:"kind"`
	Host  string        `json:"host"`
	N     int           `json:"n"`
	M     int           `json:"m"`
	Rmax  int           `json:"rmax"`
	Radii []radiusEntry `json:"radii"`
}

type radiusEntry struct {
	R        int     `json:"r"`
	Alpha    float64 `json:"alpha"`
	Types    int     `json:"types"`
	Majority int     `json:"majority"`
}

func runMeasure(a *attempt, spec Spec) ([]byte, error) {
	h, desc, err := resolveHost(spec.Host)
	if err != nil {
		return nil, err
	}
	homs, err := order.SweepMeasureAllCtx(a.ctx, h.G, order.Identity(h.G.N()), spec.Rmax)
	if err != nil {
		return nil, err
	}
	out := measureResult{Kind: "measure", Host: desc, N: h.G.N(), M: h.G.M(), Rmax: spec.Rmax}
	for r, hm := range homs {
		out.Radii = append(out.Radii, radiusEntry{R: r + 1, Alpha: hm.Alpha, Types: len(hm.Counts), Majority: hm.Count})
	}
	return json.Marshal(&out)
}

// certifyResult is the result body of certify jobs. BestRatio is a
// decimal string so +Inf (no feasible assignment) survives JSON.
type certifyResult struct {
	Kind          string `json:"kind"`
	Host          string `json:"host"`
	Problem       string `json:"problem"`
	Radius        int    `json:"radius"`
	Types         int    `json:"types"`
	Algorithms    int    `json:"algorithms"`
	FeasibleCount int    `json:"feasible"`
	BestRatio     string `json:"best_ratio"`
	Optimum       int    `json:"optimum"`
}

// runCertify enumerates the PO algorithm space with periodic
// interned-catalogue checkpoints, resuming the cursor from the latest
// valid snapshot instead of restarting the enumeration.
func runCertify(a *attempt, spec Spec) ([]byte, error) {
	h, desc, err := resolveHost(spec.Host)
	if err != nil {
		return nil, err
	}
	p, err := problems.ByName(spec.Problem)
	if err != nil {
		return nil, err
	}
	opts := core.CertifyOpts{Ctx: a.ctx, Progress: a.progress}
	if a.every >= 0 {
		opts.Every = a.every
		opts.Checkpoint = func(s *core.CertifySnapshot) error {
			if _, err := a.store.Write(uint64(s.Next), core.CertifySnapshotKind, s.Encode()); err != nil {
				return err
			}
			a.noteCkpt()
			return nil
		}
		if _, payload, ok, err := a.store.LatestValid(core.CertifySnapshotKind); err != nil {
			return nil, err
		} else if ok {
			snap, err := core.DecodeCertifySnapshot(payload)
			if err != nil {
				return nil, fmt.Errorf("job: checkpoint decode: %w", err)
			}
			opts.Resume = snap
		}
	}
	lb, err := core.CertifyPOLowerBoundOpts(h, p, spec.Radius, spec.MaxAlgorithms, opts)
	if err != nil {
		return nil, err
	}
	out := certifyResult{
		Kind: "certify", Host: desc, Problem: p.Name(), Radius: spec.Radius,
		Types: lb.Types, Algorithms: lb.Algorithms, FeasibleCount: lb.FeasibleCount,
		BestRatio: strconv.FormatFloat(lb.BestRatio, 'g', -1, 64), Optimum: lb.Optimum,
	}
	return json.Marshal(&out)
}
