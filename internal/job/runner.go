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
// resolves a validated spec, builds the engine itself (so it controls
// arming), wires the checkpoint cadence into the job's on-disk store,
// arms a resume snapshot when the store holds one, runs flood and run
// jobs through the shared workload runner (algorithms.Run), and
// renders a deterministic JSON result. Result bytes are a pure function of the spec — no
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

// engine builds the engine for an engine job. A checkpointed workload
// snapshots into the store and resumes from the latest valid snapshot
// when one exists; corrupt or truncated snapshot files fail the
// container hash and are skipped by LatestValid, falling back to the
// previous checkpoint (or a fresh start). Other workloads run on a
// plain engine and restart from scratch after a crash.
func (a *attempt) engine(h *model.Host, total int, checkpointed bool) (*model.Engine, error) {
	e := model.NewEngine(h)
	if a.every < 0 || !checkpointed {
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

// runWorkload resolves the host and runs a flood or run job's workload
// through the shared runner, on an engine checkpointing into the job's
// store when the workload allows it. The fault summary is nil on clean
// runs.
func runWorkload(a *attempt, spec Spec, algo string, total int) (desc string, n int, out *algorithms.Outcome, faults *faultSummary, err error) {
	h, desc, err := resolveHost(spec.Host)
	if err != nil {
		return "", 0, nil, nil, err
	}
	rs := algorithms.Spec{Algo: algo, Rmax: spec.Rmax, Rounds: spec.Rounds}
	if spec.Faults != "" {
		prof, err := model.ParseProfile(spec.Faults)
		if err != nil {
			return "", 0, nil, nil, err
		}
		rs.Sched = prof.New(h, spec.seed())
	}
	// Validate has checked the name; Run reports an unknown one.
	w, _ := algorithms.LookupWorkload(algo)
	e, err := a.engine(h, total, w.Checkpointed)
	if err != nil {
		return "", 0, nil, nil, err
	}
	out, err = algorithms.Run(a.ctx, e, h, rand.New(rand.NewSource(spec.seed())), rs)
	if err != nil {
		return "", 0, nil, nil, err
	}
	if rs.Sched != nil {
		rep := out.Report
		faults = &faultSummary{
			Profile: rep.Profile, Crashed: rep.NumCrashed,
			Dropped: rep.Dropped, Duplicated: rep.Duplicated, Reordered: rep.Reordered,
			Violations: out.Violations, Uncovered: out.Uncovered, Conflicts: out.Conflicts,
		}
	}
	return desc, h.G.N(), out, faults, nil
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
	desc, n, res, faults, err := runWorkload(a, spec, "flood", spec.Rounds)
	if err != nil {
		return nil, err
	}
	a.progress(spec.Rounds, spec.Rounds)
	return json.Marshal(&floodResult{
		Kind: "flood", Host: desc, N: n, Seed: spec.seed(), Horizon: spec.Rounds,
		Rounds: res.Rounds, Leader: res.Leader, Converged: res.Size, Faults: faults,
	})
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

// runEngineWorkload runs the /v1/run workloads as durable jobs.
// Checkpointed workloads resume through the engine's default uint64
// codec; gather's view trees live outside the engine's state column
// and are not snapshotted, so gather jobs restart from scratch after a
// crash instead of resuming.
func runEngineWorkload(a *attempt, spec Spec) ([]byte, error) {
	desc, n, res, faults, err := runWorkload(a, spec, spec.Algo, 0)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&runResult{
		Kind: "run", Host: desc, Algo: spec.Algo, N: n, Seed: spec.seed(),
		Rounds: res.Rounds, Size: res.Size, Faults: faults,
	})
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
