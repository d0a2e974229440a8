package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/job"
	"repro/internal/serve"
)

const (
	// coldGroups is how many distinct seeds the cold phase requests;
	// each seed gives one request of each of the five kinds.
	coldGroups = 16
	// minHits is the least number of warm requests in a pass.
	minHits = 1000
	// floodJobs is how many flood jobs the jobs phase runs.
	floodJobs = 4
	// jobTimeout fails a job that is not done by then.
	jobTimeout = 20 * time.Second
	// maxMessages caps the failure messages kept; every failure is
	// still counted.
	maxMessages = 20
)

// servePlan is what the clients send: the cold URLs in their fixed
// order and the flood job specs.
type servePlan struct {
	cold []string
	jobs []job.Spec
}

func newServePlan(seed int64) servePlan {
	g := rand.New(rand.NewSource(seed))
	var p servePlan
	for k := range coldGroups {
		s := g.Int63n(1 << 31)
		// Measure keys on the host alone, so each group sweeps a torus of
		// its own size. Tori of near sizes cost about the same; random-
		// regular hosts would not (their generator's restarts vary, see
		// scaleItems). The five kinds cost about the same, 1.5 to 3 ms
		// on a 2-core VM, so the cold percentiles fall inside one dense
		// cluster. Each request also stays well under the scheduler's
		// 10 ms preemption slice when the machine runs twice as slow;
		// longer requests made the p90 jump between runs whenever the
		// two clients' requests started preempting each other.
		p.cold = append(p.cold,
			fmt.Sprintf("/v1/run?algo=cole-vishkin&host=dcycle:4000&seed=%d", s),
			fmt.Sprintf("/v1/run?algo=matching&host=torus:45x45&seed=%d", s),
			fmt.Sprintf("/v1/run?algo=gather&host=torus:30x30&rmax=3&seed=%d", s),
			fmt.Sprintf("/v1/run?algo=gather&host=torus:30x30&rmax=2&seed=%d", s),
			fmt.Sprintf("/v1/measure?host=torus:%dx40&rmax=3", 40+k))
	}
	for range floodJobs {
		p.jobs = append(p.jobs, job.Spec{Kind: "flood", Host: "cycle:10000", Seed: g.Int63n(1 << 31), Rounds: 100, CheckpointEvery: 25})
	}
	return p
}

// serveResult is the outcome of the serve passes of one run.
type serveResult struct {
	Setup       []float64   `json:"setup"`  // per pass, seconds
	Walls       []float64   `json:"walls"`  // per pass: cold + warm + jobs phases
	Rates       []float64   `json:"rates"`  // per pass: cold+warm requests per second
	Cold        [][]float64 `json:"cold"`   // [pass][url] cold request latency, seconds
	RSSKB       []int64     `json:"rss_kb"` // per pass: peak RSS
	Hits        []float64   `json:"hits"`   // every warm request, seconds
	Jobs        []float64   `json:"jobs"`   // every job, submit to done, seconds
	Attempted   int         `json:"attempted"`
	Failed      int         `json:"failed"`
	Failures    []string    `json:"failures"`
	Answer      string      `json:"answer"` // digest of the first pass's cold bodies and job results
	HitRatio    float64     `json:"cache_hit_ratio"`
	Shed        int64       `json:"shed"`
	Checkpoints int         `json:"checkpoints"`
	CkptBytes   int64       `json:"ckpt_bytes"`
	Runtime     rtDelta     `json:"runtime"` // cold, warm and jobs phases
}

func (r *serveResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxMessages {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// servePasses runs serve passes until the time is up (at least one),
// each on a fresh server and job directory. With a tracer it runs the
// single traced pass.
func servePasses(seed int64, seconds float64, work string, t *tracer) (*serveResult, error) {
	plan := newServePlan(seed)
	res := &serveResult{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for {
		dir, err := os.MkdirTemp(work, "jobs-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		err = servePass(plan, dir, t, res)
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
		if t != nil || time.Now().Add(time.Since(start)).After(deadline) {
			return res, nil
		}
	}
}

// client is the in-process HTTP client of one server.
type client struct{ srv http.Handler }

func (c client) do(method, url string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, url, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	c.srv.ServeHTTP(rec, req)
	return rec
}

// timed sends one GET inside a span and returns its latency.
func (c client) timed(t *tracer, span string, parent int, url string) (*httptest.ResponseRecorder, float64) {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	sp := t.begin(span, parent)
	t0 := time.Now()
	c.srv.ServeHTTP(rec, req)
	d := time.Since(t0).Seconds()
	t.end(sp)
	return rec, d
}

// closedLoop runs op(i) for i in [0, n) from clients() goroutines, each
// sending its next request only after the previous one completed.
func closedLoop(n int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				op(i)
			}
		}()
	}
	wg.Wait()
}

// servePass is one pass: set-up, then the cold, warm and jobs phases.
func servePass(plan servePlan, dir string, t *tracer, res *serveResult) error {
	// Every pass starts from an empty heap returned to the OS, so its
	// peak RSS is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	root := t.begin("setup", -1)
	t0 := time.Now()
	var srv *serve.Server
	t.call("serve.new", root, func() { srv = serve.New(serve.Config{}) })
	var m *job.Manager
	var err error
	t.call("job.open", root, func() { m, err = job.Open(job.Config{Dir: dir}) })
	if err != nil {
		t.end(root)
		return err
	}
	defer m.Close()
	srv.AttachJobs(m)
	res.Setup = append(res.Setup, time.Since(t0).Seconds())
	t.end(root)
	c := client{srv}
	first := len(res.Walls) == 0
	digest := sha256.New()

	// Cold: every URL once, all cache misses.
	before := readRuntime()
	passStart := time.Now()
	root = t.begin("phase:cold", -1)
	bodies := make([][]byte, len(plan.cold))
	lat := make([]float64, len(plan.cold))
	errs := make([]string, len(plan.cold))
	closedLoop(len(plan.cold), func(i int) {
		rec, d := c.timed(t, "serve.cold", root, plan.cold[i])
		lat[i], bodies[i] = d, rec.Body.Bytes()
		errs[i] = checkResponse(rec, "miss", plan.cold[i])
	})
	t.end(root)
	coldTime := time.Since(passStart).Seconds()
	for i, e := range errs {
		res.Attempted++
		if e != "" {
			res.fail("%s", e)
		}
		digest.Write(bodies[i])
	}
	res.Cold = append(res.Cold, lat)

	// Warm: the same URLs replayed, all cache hits with the cold bodies.
	reps := (minHits + len(plan.cold) - 1) / len(plan.cold)
	nWarm := reps * len(plan.cold)
	warmStart := time.Now()
	root = t.begin("phase:warm", -1)
	lat = make([]float64, nWarm)
	errs = make([]string, nWarm)
	closedLoop(nWarm, func(i int) {
		k := i % len(plan.cold)
		rec, d := c.timed(t, "serve.hit", root, plan.cold[k])
		lat[i] = d
		if errs[i] = checkResponse(rec, "hit", plan.cold[k]); errs[i] == "" && !bytes.Equal(rec.Body.Bytes(), bodies[k]) {
			errs[i] = fmt.Sprintf("%s: warm body differs from the cold body", plan.cold[k])
		}
	})
	t.end(root)
	warmTime := time.Since(warmStart).Seconds()
	for _, e := range errs {
		res.Attempted++
		if e != "" {
			res.fail("%s", e)
		}
	}
	res.Hits = append(res.Hits, lat...)

	// Jobs: each flood job submitted, polled to done, result checked.
	root = t.begin("phase:jobs", -1)
	lat = make([]float64, len(plan.jobs))
	errs = make([]string, len(plan.jobs))
	results := make([][]byte, len(plan.jobs))
	closedLoop(len(plan.jobs), func(i int) {
		sp := t.begin("job.run", root)
		t0 := time.Now()
		results[i], errs[i] = runJob(c, plan.jobs[i])
		lat[i] = time.Since(t0).Seconds()
		t.end(sp)
	})
	t.end(root)
	res.Walls = append(res.Walls, time.Since(passStart).Seconds())
	res.Runtime.add(before, readRuntime())
	res.Rates = append(res.Rates, float64(len(plan.cold)+nWarm)/(coldTime+warmTime))
	for i, e := range errs {
		res.Attempted++
		if e != "" {
			res.fail("%s", e)
		}
		digest.Write(results[i])
	}
	res.Jobs = append(res.Jobs, lat...)
	res.RSSKB = append(res.RSSKB, peakRSSKB())
	if first {
		res.Answer = hex.EncodeToString(digest.Sum(nil))
	}

	// The server's own account: every cold request missed, every warm
	// one hit, nothing was shed.
	var met struct {
		Shed  int64 `json:"shed"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	rec := c.do(http.MethodGet, "/metrics", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &met); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	if met.Shed != 0 || met.Cache.Hits != int64(nWarm) || met.Cache.Misses != int64(len(plan.cold)) {
		res.fail("/metrics: shed %d, hits %d (want %d), misses %d (want %d)",
			met.Shed, met.Cache.Hits, nWarm, met.Cache.Misses, len(plan.cold))
	}
	res.Shed = met.Shed
	res.HitRatio = float64(met.Cache.Hits) / float64(met.Cache.Hits+met.Cache.Misses)
	res.Checkpoints, res.CkptBytes = 0, 0
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".ck") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		res.Checkpoints++
		res.CkptBytes += info.Size()
		return nil
	})
}

// checkResponse wants a 200 with the given X-Cache state.
func checkResponse(rec *httptest.ResponseRecorder, cache, url string) string {
	if rec.Code != http.StatusOK {
		return fmt.Sprintf("%s: status %d: %s", url, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if got := rec.Header().Get("X-Cache"); got != cache {
		return fmt.Sprintf("%s: X-Cache %q, want %q", url, got, cache)
	}
	return ""
}

// runJob submits a flood job, polls it to done and checks its result:
// the leader flood converged on exactly the nodes within reach.
func runJob(c client, spec job.Spec) ([]byte, string) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err.Error()
	}
	rec := c.do(http.MethodPost, "/v1/jobs", body)
	var st job.Status
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		return nil, fmt.Sprintf("job submit: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	deadline := time.Now().Add(jobTimeout)
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" || time.Now().After(deadline) {
			return nil, fmt.Sprintf("job %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(200 * time.Microsecond)
		rec = c.do(http.MethodGet, "/v1/jobs/"+st.ID, nil)
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			return nil, fmt.Sprintf("job %s poll: status %d", st.ID, rec.Code)
		}
	}
	rec = c.do(http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	var out struct {
		N         int `json:"n"`
		Horizon   int `json:"horizon"`
		Converged int `json:"converged"`
	}
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil {
		return nil, fmt.Sprintf("job %s result: status %d", st.ID, rec.Code)
	}
	if err := checkFlood(out.N, out.Horizon, out.Converged); err != nil {
		return nil, fmt.Sprintf("job %s: %v", st.ID, err)
	}
	return rec.Body.Bytes(), ""
}
