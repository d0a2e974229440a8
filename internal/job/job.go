// Package job is the durable asynchronous job layer of localapproxd:
// long-running measure/run/certify/flood workloads submitted over HTTP
// run on a bounded worker pool, checkpoint their progress into a
// content-addressed on-disk store (internal/ckpt), survive daemon
// crashes (incomplete jobs are re-enqueued on Open and resume from
// their latest valid snapshot), retry transient failures with
// exponential backoff and jitter, and are rescheduled — checkpoint
// first, then preempt — by a soft-deadline watchdog so one huge job
// cannot monopolise a worker forever.
//
// Durability leans entirely on determinism: a job is a pure function
// of its spec, the job id is the content hash of the canonical spec
// encoding, and every runner's result bytes are reproducible, so a
// resumed job's result is byte-identical to an uninterrupted run's —
// the property the CI kill-restart drill asserts.
package job

import (
	"encoding/json"
	"fmt"

	"repro/internal/algorithms"
	"repro/internal/ckpt"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/problems"
)

// State is a job's lifecycle position. Transitions: Pending → Running
// → {Done, Failed, Cancelled}, with Running → Checkpointed → Running
// loops for watchdog reschedules, retry backoff, and daemon restarts.
type State int32

const (
	// Pending jobs are queued for a worker (no checkpoint yet).
	Pending State = iota
	// Running jobs hold a worker slot.
	Running
	// Checkpointed jobs were preempted (soft deadline, drain, crash)
	// or are waiting out a retry backoff; they re-enter the queue and
	// resume from their latest valid snapshot.
	Checkpointed
	// Done jobs have result bytes on disk.
	Done
	// Failed jobs exhausted their retries; the error is on disk.
	Failed
	// Cancelled jobs were deleted by the client.
	Cancelled

	numStates = 6
)

var stateNames = [numStates]string{"pending", "running", "checkpointed", "done", "failed", "cancelled"}

func (s State) String() string {
	if s < 0 || int(s) >= numStates {
		return fmt.Sprintf("state(%d)", int32(s))
	}
	return stateNames[s]
}

// terminal reports whether the state admits no further transitions.
func (s State) terminal() bool { return s == Done || s == Failed || s == Cancelled }

// Spec is a job submission: which workload to run and how durably.
// The zero value of every tuning field takes the manager default. The
// spec is the job's identity — the id is the hash of its canonical
// encoding — so two submissions of the same spec are one job.
type Spec struct {
	// Kind selects the workload: "run" (engine workloads, as
	// /v1/run), "measure" (homogeneity sweep, as /v1/measure),
	// "certify" (PO lower-bound enumeration), or "flood" (long-horizon
	// FloodMax, the crash-drill workload).
	Kind string `json:"kind"`
	// Host is a host-registry descriptor (host.Parse grammar).
	Host string `json:"host"`
	// Algo names the run workload (algorithms.Workloads).
	Algo string `json:"algo,omitempty"`
	// Seed derives all job randomness (ids, rng); default 1.
	Seed int64 `json:"seed,omitempty"`
	// Faults is a fault-profile descriptor; empty runs clean.
	Faults string `json:"faults,omitempty"`
	// Rounds is the flood horizon: required (>= 1) for flood jobs,
	// 0 meaning n for run:flood.
	Rounds int `json:"rounds,omitempty"`
	// Rmax is the sweep/gather radius (measure, run:gather).
	Rmax int `json:"rmax,omitempty"`
	// Problem/Radius/MaxAlgorithms parameterise certify jobs.
	Problem       string `json:"problem,omitempty"`
	Radius        int    `json:"radius,omitempty"`
	MaxAlgorithms int    `json:"max_algorithms,omitempty"`
	// CheckpointEvery is the snapshot cadence in rounds (engine jobs)
	// or assignments (certify); 0 takes the manager default, < 0
	// disables checkpointing for this job.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// SoftDeadlineMS bounds one attempt's wall time before the
	// watchdog checkpoints and reschedules it; 0 takes the manager
	// default, < 0 disables the watchdog for this job.
	SoftDeadlineMS int64 `json:"soft_deadline_ms,omitempty"`
	// MaxRetries bounds transient-failure retries; 0 takes the
	// manager default, < 0 means no retries.
	MaxRetries int `json:"max_retries,omitempty"`
}

// Validate checks the spec fully at submission time, so every error a
// runner hits later is transient by construction and safe to retry.
func (s *Spec) Validate() error {
	switch s.Kind {
	case "flood":
		if s.Rounds < 1 {
			return fmt.Errorf("job: flood needs rounds >= 1 (got %d)", s.Rounds)
		}
	case "run":
		if _, ok := algorithms.LookupWorkload(s.Algo); !ok {
			return fmt.Errorf("job: unknown run workload %q\n%s", s.Algo, algorithms.DescribeWorkloads())
		}
	case "measure":
		if s.Rmax < 1 {
			return fmt.Errorf("job: measure needs rmax >= 1 (got %d)", s.Rmax)
		}
	case "certify":
		if _, err := problems.ByName(s.Problem); err != nil {
			return fmt.Errorf("job: %w", err)
		}
		if s.Radius < 1 {
			return fmt.Errorf("job: certify needs radius >= 1 (got %d)", s.Radius)
		}
		if s.MaxAlgorithms < 1 {
			return fmt.Errorf("job: certify needs max_algorithms >= 1 (got %d)", s.MaxAlgorithms)
		}
	default:
		return fmt.Errorf("job: unknown kind %q (want run, measure, certify or flood)", s.Kind)
	}
	if s.Host == "" {
		return fmt.Errorf("job: missing host descriptor\n%s", host.Describe())
	}
	rh, err := host.Parse(s.Host)
	if err != nil {
		return fmt.Errorf("job: %w", err)
	}
	if s.Kind == "run" && s.Algo == "cole-vishkin" && (rh.D == nil || !rh.D.IsRegularDigraph(1)) {
		return fmt.Errorf("job: cole-vishkin needs a consistently oriented cycle host (e.g. dcycle:<n>)")
	}
	if s.Faults != "" {
		if _, err := model.ParseProfile(s.Faults); err != nil {
			return fmt.Errorf("job: %w", err)
		}
	}
	return nil
}

// canonical is the hashed encoding: JSON with the struct's fixed field
// order and zero fields omitted, after normalising the seed default.
func (s *Spec) canonical() []byte {
	c := *s
	if c.Seed == 0 {
		c.Seed = 1
	}
	b, err := json.Marshal(&c)
	if err != nil {
		// Spec is a plain struct of strings and ints; Marshal cannot
		// fail on it.
		panic(err)
	}
	return b
}

// ID is the job's content-addressed identity: equal specs are the
// same job, so resubmission after a crash (or a duplicate click) is
// idempotent.
func (s *Spec) ID() string { return "j" + ckpt.Sum(s.canonical()) }

// Progress is a job's coarse completion state: checkpoint rounds for
// engine jobs, assignments for certify. Total may be 0 when the
// workload has no natural length (measure).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Status is the externally visible job record (the body of
// GET /v1/jobs/{id}).
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Spec  Spec   `json:"spec"`
	// Attempts counts started runs; Reschedules counts watchdog
	// preemptions (not failures).
	Attempts    int      `json:"attempts"`
	Reschedules int      `json:"reschedules"`
	Progress    Progress `json:"progress"`
	Error       string   `json:"error,omitempty"`
}
