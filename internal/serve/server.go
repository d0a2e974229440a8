// Package serve is the hardened HTTP/JSON service layer of the repo:
// a long-running localapproxd process exposing the host-descriptor
// grammar over HTTP — measure homogeneity, run engine workloads clean
// or under fault profiles, enumerate the registries — built to
// degrade gracefully rather than fall over:
//
//   - admission control: a bounded worker budget (on top of par's
//     process-wide reservation budget) with a bounded wait queue;
//     saturation fast-fails with 429 + Retry-After instead of
//     unbounded goroutines, and every admitted slot is released on
//     every exit path (success, error, panic, cancellation).
//   - per-request deadlines: a context derived from the request
//     deadline reaches the engine round loop and the sweep loop
//     (cooperative cancellation), so a 10^6-node request that blows
//     its budget returns 504 and frees its workers mid-run.
//   - panic isolation: a recovering handler wrapper plus par.Catch
//     around every computation convert a poisoned request into a
//     stamped 500 while the process keeps serving.
//   - content-addressed result cache: responses are keyed on the
//     canonical descriptor tuple and stored in copy-on-write intern
//     shards; a repeat request is one hash, one lock-free probe and
//     zero allocations, and concurrent identical requests collapse
//     onto one computation (singleflight, shared fate). Errors are
//     never cached.
//   - observability and lifecycle: /healthz, /readyz (503 once
//     draining), /metrics (counters, cache stats, worker-budget
//     occupancy), and a drain hook for SIGTERM graceful shutdown.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/host"
	"repro/internal/job"
	"repro/internal/model"
	"repro/internal/par"
)

// Config sizes the server. Zero values take the defaults noted.
type Config struct {
	// Workers bounds concurrently computing requests (default 2; each
	// computation additionally draws engine workers from par's global
	// budget, so total goroutines stay bounded).
	Workers int
	// Queue bounds requests waiting for a worker slot (default 8);
	// beyond it, requests shed with 429.
	Queue int
	// DefaultDeadline applies when a request carries no deadline_ms
	// (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps deadline_ms from above (default 2m).
	MaxDeadline time.Duration
	// CacheEntries caps the result cache (default 4096 entries); at
	// the cap the cache stops admitting, it never evicts.
	CacheEntries int
	// MaxRmax caps sweep/gather radii (default 8, as the CLIs cap).
	MaxRmax int
	// Logger, when non-nil, logs one structured line per request
	// (request id, method, path, status, duration). Nil keeps the
	// cache-hit path allocation-free; production passes a slog.Logger
	// with the flag-selected handler.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue <= 0 {
		c.Queue = 8
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.MaxRmax <= 0 {
		c.MaxRmax = 8
	}
	return c
}

// Server implements http.Handler. Create with New; safe for
// concurrent use by any number of connections.
type Server struct {
	cfg      Config
	adm      *admission
	cache    *cache
	met      metrics
	shard    shardGauges
	log      *slog.Logger
	jobs     *job.Manager
	reqID    atomic.Int64
	draining atomic.Bool

	// testHook, when set, runs inside every admitted computation
	// (after the worker slot is held, before the workload). Tests use
	// it to block computations and to inject panics.
	testHook func(key string)
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		adm:   newAdmission(cfg.Workers, cfg.Queue),
		cache: newCache(cfg.CacheEntries),
		log:   cfg.Logger,
	}
}

// AttachJobs enables the durable jobs API (/v1/jobs), backed by m.
// The manager's lifecycle (Open, Drain) belongs to the caller.
func (s *Server) AttachJobs(m *job.Manager) { s.jobs = m }

// BeginDrain flips the server to draining: /readyz answers 503 so
// load balancers stop routing here, while in-flight and already-
// accepted requests complete normally. The caller pairs it with
// http.Server.Shutdown for the actual connection drain.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shared header value slices: assigning an existing slice into the
// header map allocates nothing, which keeps the cache-hit path at
// zero allocs (Header().Set would allocate a fresh 1-element slice
// per call).
var (
	hdrJSON = []string{"application/json"}
	hdrText = []string{"text/plain; charset=utf-8"}
	hdrHit  = []string{"hit"}
	hdrMiss = []string{"miss"}
)

// keyPool recycles cache-key scratch buffers across requests.
var keyPool = sync.Pool{New: func() any { b := make([]byte, 0, 128); return &b }}

// loggingWriter captures the response status for the request log. It
// is only allocated when a Logger is configured, so the logger-less
// cache-hit path stays at zero allocations.
type loggingWriter struct {
	http.ResponseWriter
	status int
}

func (lw *loggingWriter) WriteHeader(code int) {
	lw.status = code
	lw.ResponseWriter.WriteHeader(code)
}

// ServeHTTP is the outermost handler: request counting, latency
// accounting (aggregate + per-endpoint histogram), optional
// structured request logging, and the recovering wrapper that
// converts a handler panic into a stamped 500 with the process still
// serving (workload panics are already converted to errors by
// par.Catch deeper down; this layer catches everything else).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	start := time.Now()
	ep := endpointIndex(r.URL.Path)
	var lw *loggingWriter
	var rid int64
	if s.log != nil {
		rid = s.reqID.Add(1)
		lw = &loggingWriter{ResponseWriter: w, status: http.StatusOK}
		w = lw
	}
	defer func() {
		micros := time.Since(start).Microseconds()
		s.met.latencyMicros.Add(micros)
		s.met.latencyCount.Add(1)
		s.met.endpoints[ep].observe(micros)
		if rec := recover(); rec != nil {
			s.met.panics.Add(1)
			w.Header()["Content-Type"] = hdrText
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "internal error: panic: %v\n", rec)
		}
		if lw != nil {
			s.log.Info("request",
				"rid", rid, "method", r.Method, "path", r.URL.Path,
				"status", lw.status, "micros", micros)
		}
	}()
	s.route(w, r)
}

// endpoints is the 404 listing (and the README of the service).
const endpoints = `endpoints:
  GET    /healthz                          liveness
  GET    /readyz                           readiness (503 once draining)
  GET    /metrics                          counters, cache stats, latency histograms, job gauge (JSON)
  GET    /v1/hosts                         host-family registry (JSON)
  GET    /v1/profiles                      fault-profile grammar (JSON)
  GET    /v1/workloads                     run-endpoint workload registry (JSON)
  GET    /v1/measure?host=D&rmax=R         layered homogeneity sweep [deadline_ms=N]
  GET    /v1/run?algo=A&host=D|n=N         engine workload [seed=S] [faults=P] [rmax=R] [shards=K] [deadline_ms=N]
  POST   /v1/jobs                          submit a durable job (JSON spec body)
  GET    /v1/jobs                          list jobs + state gauge
  GET    /v1/jobs/{id}                     job status and progress
  GET    /v1/jobs/{id}/result              result bytes of a done job
  DELETE /v1/jobs/{id}                     cancel a job
`

// route dispatches by literal path — no ServeMux, no per-request
// pattern allocation, so routing costs nothing on the hit path. The
// jobs subtree carries its own method handling (POST/DELETE); every
// other endpoint is GET/HEAD only.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	if p := r.URL.Path; len(p) >= len("/v1/jobs") && p[:len("/v1/jobs")] == "/v1/jobs" {
		s.routeJobs(w, r)
		return
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.met.badRequests.Add(1)
		http.Error(w, "method not allowed (GET only)", http.StatusMethodNotAllowed)
		return
	}
	switch r.URL.Path {
	case "/healthz":
		w.Header()["Content-Type"] = hdrText
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	case "/readyz":
		w.Header()["Content-Type"] = hdrText
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	case "/metrics":
		s.handleMetrics(w)
	case "/v1/hosts":
		s.handleHosts(w)
	case "/v1/profiles":
		s.writeJSONValue(w, map[string]string{"grammar": model.DescribeProfiles()})
	case "/v1/workloads":
		s.writeJSONValue(w, algorithms.Workloads)
	case "/v1/measure":
		s.handleMeasure(w, r)
	case "/v1/run":
		s.handleRun(w, r)
	default:
		http.Error(w, "unknown endpoint "+r.URL.Path+"\n"+endpoints, http.StatusNotFound)
	}
}

// handleMetrics renders the counter block plus sampled gauges,
// per-endpoint latency histograms, and (when jobs are attached) the
// job-state gauge.
func (s *Server) handleMetrics(w http.ResponseWriter) {
	m := &s.met
	hists := make(map[string]any, numEndpoints)
	for i := range m.endpoints {
		if m.endpoints[i].count.Load() > 0 {
			hists[endpointNames[i]] = m.endpoints[i].render()
		}
	}
	var jobsBlock map[string]any
	if s.jobs != nil {
		jobsBlock = map[string]any{
			"states":      s.jobs.StateCounts(),
			"queue_depth": s.jobs.QueueDepth(),
			"workers":     s.jobs.Workers(),
		}
	}
	s.writeJSONValue(w, map[string]any{
		"latency_by_endpoint": hists,
		"jobs":                jobsBlock,
		"requests":            m.requests.Load(),
		"shed":                m.shed.Load(),
		"timeouts":            m.timeouts.Load(),
		"panics":              m.panics.Load(),
		"bad_requests":        m.badRequests.Load(),
		"cache": map[string]int64{
			"hits":      m.hits.Load(),
			"misses":    m.misses.Load(),
			"collapsed": m.collapsed.Load(),
			"entries":   s.cache.entries.Load(),
		},
		"workers": map[string]int64{
			"limit":      int64(s.cfg.Workers),
			"busy":       int64(s.adm.busy()),
			"queued":     s.adm.depth(),
			"inflight":   m.inflight.Load(),
			"par_in_use": int64(par.InUse()),
			"par_knob":   int64(par.N()),
		},
		"latency": map[string]int64{
			"count":        m.latencyCount.Load(),
			"total_micros": m.latencyMicros.Load(),
		},
		"sharded":  s.shard.render(),
		"draining": s.draining.Load(),
	})
}

// handleHosts renders the host-family registry.
func (s *Server) handleHosts(w http.ResponseWriter) {
	type fam struct{ Name, Syntax, Doc string }
	fams := host.Families()
	out := make([]fam, len(fams))
	for i, f := range fams {
		out[i] = fam{f.Name, f.Syntax, f.Doc}
	}
	s.writeJSONValue(w, out)
}

// handleMeasure serves /v1/measure: validate, probe the cache, and
// only on a miss parse the host and run the cancellable sweep.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	if q.unknown != "" || q.algo != "" || q.n != "" || q.seed != "" || q.faults != "" || q.shards != "" {
		bad := q.unknown
		if bad == "" {
			bad = "algo/n/seed/faults/shards"
		}
		s.badRequest(w, "unknown parameter %q (measure takes host, rmax, deadline_ms)", bad)
		return
	}
	if q.host == "" {
		s.badRequest(w, "missing host descriptor\n%s", host.Describe())
		return
	}
	rmax, ok := atoiQ(q.rmax)
	if !ok || rmax < 1 || rmax > s.cfg.MaxRmax {
		s.badRequest(w, "rmax %q out of range (valid radii: 1..%d)", q.rmax, s.cfg.MaxRmax)
		return
	}
	deadline, ok := s.parseDeadline(q.deadline)
	if !ok {
		s.badRequest(w, "deadline_ms %q is not a positive integer", q.deadline)
		return
	}
	// Canonical tuple: op, host, rank, radius, algo, seed, profile.
	bp := keyPool.Get().(*[]byte)
	b := append((*bp)[:0], "measure"...)
	b = append(b, keySep)
	b = append(b, q.host...)
	b = append(b, keySep)
	b = append(b, "identity"...)
	b = append(b, keySep)
	b = strconv.AppendInt(b, int64(rmax), 10)
	b = append(b, keySep, keySep, keySep)
	h := hashKey(b)
	if body := s.cache.get(h, b); body != nil {
		*bp = b
		keyPool.Put(bp)
		s.met.hits.Add(1)
		s.writeBody(w, body, hdrHit)
		return
	}
	key := string(b)
	*bp = b
	keyPool.Put(bp)
	hostDesc := q.host
	s.compute(w, r, h, key, deadline, func(ctx context.Context) ([]byte, error) {
		return computeMeasure(ctx, hostDesc, rmax)
	})
}

// handleRun serves /v1/run. The host is either an explicit
// descriptor or synthesized from n= (the directed cycle for
// cole-vishkin — its natural host — and the port-numbered cycle
// otherwise), matching cmd/localsim's scale mode.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	q := parseQuery(r.URL.RawQuery)
	if q.unknown != "" {
		s.badRequest(w, "unknown parameter %q (run takes algo, host, n, seed, faults, rmax, deadline_ms)", q.unknown)
		return
	}
	wl, known := algorithms.LookupWorkload(q.algo)
	if !known {
		s.badRequest(w, "unknown workload %q\n%s", q.algo, algorithms.DescribeWorkloads())
		return
	}
	if (q.host == "") == (q.n == "") {
		s.badRequest(w, "pass exactly one of host= (a registry descriptor) or n= (a synthesized cycle host)\n%s", host.Describe())
		return
	}
	n := 0
	if q.n != "" {
		var ok bool
		n, ok = atoiQ(q.n)
		if !ok || n < 3 {
			s.badRequest(w, "n %q out of range (need an integer >= 3)", q.n)
			return
		}
	}
	seed := int64(1)
	if q.seed != "" {
		var ok bool
		seed, ok = atoi64Q(q.seed)
		if !ok {
			s.badRequest(w, "seed %q is not an integer", q.seed)
			return
		}
	}
	rmax := 0
	if q.rmax != "" {
		if q.algo != "gather" {
			s.badRequest(w, "rmax only applies to the gather workload")
			return
		}
		var ok bool
		rmax, ok = atoiQ(q.rmax)
		if !ok || rmax < 1 || rmax > s.cfg.MaxRmax {
			s.badRequest(w, "rmax %q out of range (valid radii: 1..%d)", q.rmax, s.cfg.MaxRmax)
			return
		}
	}
	shards := 0
	if q.shards != "" {
		if !wl.Sharded {
			s.badRequest(w, "shards supports the sharded workloads only (%s)", algorithms.ShardedWorkloads())
			return
		}
		var ok bool
		shards, ok = atoiQ(q.shards)
		if !ok || shards < 1 {
			s.badRequest(w, "shards %q out of range (need an integer >= 1)", q.shards)
			return
		}
	}
	deadline, ok := s.parseDeadline(q.deadline)
	if !ok {
		s.badRequest(w, "deadline_ms %q is not a positive integer", q.deadline)
		return
	}
	// Canonical tuple: op, host, rank(-), radius, algo, seed, profile.
	// The synthesized descriptor is appended digit-wise, so the n= and
	// host= spellings of the same host share one cache entry.
	bp := keyPool.Get().(*[]byte)
	b := append((*bp)[:0], "run"...)
	b = append(b, keySep)
	if q.host != "" {
		b = append(b, q.host...)
	} else if q.algo == "cole-vishkin" {
		b = append(b, "dcycle:"...)
		b = strconv.AppendInt(b, int64(n), 10)
	} else {
		b = append(b, "cycle:"...)
		b = strconv.AppendInt(b, int64(n), 10)
	}
	hostEnd := len(b)
	b = append(b, keySep, keySep)
	b = strconv.AppendInt(b, int64(rmax), 10)
	b = append(b, keySep)
	b = append(b, q.algo...)
	b = append(b, keySep)
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, keySep)
	b = append(b, q.faults...)
	if shards > 0 {
		// Sharded responses carry a shards block, so they key
		// separately from the flat spelling of the same tuple.
		b = append(b, keySep)
		b = strconv.AppendInt(b, int64(shards), 10)
	}
	h := hashKey(b)
	if body := s.cache.get(h, b); body != nil {
		*bp = b
		keyPool.Put(bp)
		s.met.hits.Add(1)
		s.writeBody(w, body, hdrHit)
		return
	}
	key := string(b)
	hostDesc := key[len("run")+1 : hostEnd]
	*bp = b
	keyPool.Put(bp)
	algo, faults := q.algo, q.faults
	s.compute(w, r, h, key, deadline, func(ctx context.Context) ([]byte, error) {
		if shards > 0 {
			return s.computeRunSharded(ctx, hostDesc, algo, seed, faults, shards)
		}
		return computeRun(ctx, hostDesc, algo, seed, faults, rmax)
	})
}

// parseDeadline resolves deadline_ms against the config: empty takes
// the default, anything else must be a positive integer, and the
// result is clamped to MaxDeadline.
func (s *Server) parseDeadline(raw string) (time.Duration, bool) {
	if raw == "" {
		return s.cfg.DefaultDeadline, true
	}
	ms, ok := atoiQ(raw)
	if !ok || ms < 1 {
		return 0, false
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d, true
}

// compute is the miss path shared by the cacheable endpoints:
// singleflight join, admission, deadline arming, panic conversion,
// cache publication, and the response status mapping. The worker
// slot and the singleflight entry are released on every exit path.
func (s *Server) compute(w http.ResponseWriter, r *http.Request, h uint64, key string, deadline time.Duration, fn func(ctx context.Context) ([]byte, error)) {
	fl, leader := s.cache.join(key)
	if !leader {
		// Collapse onto the identical in-flight computation and share
		// its fate — but never outlive this request's own context.
		s.met.collapsed.Add(1)
		select {
		case <-fl.done:
			s.respond(w, fl.body, fl.err)
		case <-r.Context().Done():
			s.met.timeouts.Add(1)
			http.Error(w, "request cancelled while awaiting an identical in-flight computation", http.StatusGatewayTimeout)
		}
		return
	}
	s.met.misses.Add(1)
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	var body []byte
	var err error
	if aerr := s.adm.acquire(ctx); aerr != nil {
		err = aerr
	} else {
		s.met.inflight.Add(1)
		cerr := par.Catch(func() {
			if s.testHook != nil {
				s.testHook(key)
			}
			body, err = fn(ctx)
		})
		s.met.inflight.Add(-1)
		s.adm.release()
		if cerr != nil {
			body, err = nil, cerr
		}
	}
	if err == nil {
		s.cache.put(h, key, body)
	}
	s.cache.finish(key, fl, body, err)
	s.respond(w, body, err)
}

// respond maps a computation outcome onto the wire: 200 on success,
// 429 + Retry-After when shed, 504 on a dead deadline, 500 with the
// stamped panic, 400 (with the self-repairing grammar listing the
// error carries) for everything else.
func (s *Server) respond(w http.ResponseWriter, body []byte, err error) {
	if err == nil {
		s.writeBody(w, body, hdrMiss)
		return
	}
	var pe *par.PanicError
	switch {
	case errors.Is(err, errShed):
		// Retry-After reflects the actual backlog: one second per
		// queued request ahead, floor 1 — an honest hint instead of a
		// constant.
		s.met.shed.Add(1)
		s.shedJSON(w, err.Error(), 1+int(s.adm.depth()))
	case errors.As(err, &pe):
		s.met.panics.Add(1)
		http.Error(w, "computation panicked: "+pe.Error(), http.StatusInternalServerError)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.met.timeouts.Add(1)
		http.Error(w, "deadline exceeded: "+err.Error(), http.StatusGatewayTimeout)
	default:
		s.met.badRequests.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// writeBody writes a JSON body with the cache-state header; on the
// hit path every header value is a shared slice, so the whole
// response costs zero allocations.
func (s *Server) writeBody(w http.ResponseWriter, body []byte, cacheState []string) {
	hdr := w.Header()
	hdr["Content-Type"] = hdrJSON
	hdr["X-Cache"] = cacheState
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// shedJSON answers 429 with a machine-readable JSON body and a
// backlog-derived Retry-After header (shared by the run/measure
// admission gate and the jobs queue).
func (s *Server) shedJSON(w http.ResponseWriter, msg string, retryAfter int) {
	if retryAfter < 1 {
		retryAfter = 1
	}
	hdr := w.Header()
	hdr["Retry-After"] = []string{strconv.Itoa(retryAfter)}
	hdr["Content-Type"] = hdrJSON
	w.WriteHeader(http.StatusTooManyRequests)
	body, _ := json.Marshal(map[string]any{"error": msg, "retry_after_s": retryAfter})
	w.Write(body)
}

// badRequest answers 400 with a formatted message (and bumps the
// counter).
func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.met.badRequests.Add(1)
	http.Error(w, fmt.Sprintf(format, args...), http.StatusBadRequest)
}

// writeJSONValue marshals v (registry and metrics endpoints; not on
// the hit path, allocation is fine here).
func (s *Server) writeJSONValue(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = hdrJSON
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
