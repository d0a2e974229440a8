package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
)

// do drives one request through the full handler stack (no network).
func do(t *testing.T, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	return rr
}

// poll spins until cond holds or the deadline dies.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHealthReadyAndDrainFlag(t *testing.T) {
	s := New(Config{})
	if rr := do(t, s, "/healthz"); rr.Code != 200 || rr.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rr.Code, rr.Body.String())
	}
	if rr := do(t, s, "/readyz"); rr.Code != 200 {
		t.Fatalf("readyz before drain: %d", rr.Code)
	}
	s.BeginDrain()
	if rr := do(t, s, "/readyz"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: want 503, got %d", rr.Code)
	}
	if rr := do(t, s, "/healthz"); rr.Code != 200 {
		t.Fatalf("healthz while draining: want 200, got %d", rr.Code)
	}
}

func TestRegistryEndpoints(t *testing.T) {
	s := New(Config{})
	for _, tc := range []struct{ path, want string }{
		{"/v1/hosts", "dcycle"},
		{"/v1/profiles", "lossy"},
		{"/v1/workloads", "cole-vishkin"},
		{"/metrics", "requests"},
	} {
		rr := do(t, s, tc.path)
		if rr.Code != 200 {
			t.Fatalf("%s: status %d", tc.path, rr.Code)
		}
		if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: content type %q", tc.path, ct)
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("%s: body is not valid JSON: %s", tc.path, rr.Body.String())
		}
		if !strings.Contains(rr.Body.String(), tc.want) {
			t.Fatalf("%s: body missing %q: %s", tc.path, tc.want, rr.Body.String())
		}
	}
	if rr := do(t, s, "/nope"); rr.Code != 404 || !strings.Contains(rr.Body.String(), "endpoints:") {
		t.Fatalf("404 should list endpoints: %d %s", rr.Code, rr.Body.String())
	}
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/healthz", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: want 405, got %d", rr.Code)
	}
}

func TestMeasureCacheHit(t *testing.T) {
	s := New(Config{})
	rr := do(t, s, "/v1/measure?host=cycle:24&rmax=2")
	if rr.Code != 200 {
		t.Fatalf("measure: %d %s", rr.Code, rr.Body.String())
	}
	if xc := rr.Header().Get("X-Cache"); xc != "miss" {
		t.Fatalf("first request: X-Cache %q, want miss", xc)
	}
	var resp measureResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Host != "cycle:24" || resp.N != 24 || len(resp.Radii) != 2 {
		t.Fatalf("bad body: %+v", resp)
	}
	// Identity rank on the cycle: all but the wrap-around nodes share
	// one order type (22 of 24 at radius 1).
	if resp.Radii[0].Majority != 22 || resp.Radii[0].Types != 3 {
		t.Fatalf("cycle homogeneity: %+v", resp.Radii[0])
	}
	rr2 := do(t, s, "/v1/measure?host=cycle:24&rmax=2")
	if rr2.Code != 200 || rr2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: %d X-Cache %q", rr2.Code, rr2.Header().Get("X-Cache"))
	}
	if rr2.Body.String() != rr.Body.String() {
		t.Fatal("cached body differs from computed body")
	}
	if hits, misses := s.met.hits.Load(), s.met.misses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestRunWorkloads(t *testing.T) {
	s := New(Config{})
	for _, tc := range []struct {
		target string
		check  func(r runResponse) error
	}{
		{"/v1/run?algo=matching&n=12", func(r runResponse) error {
			if r.Host != "cycle:12" || r.Rounds != 2 || r.Size < 1 || r.Faults != nil {
				return fmt.Errorf("matching: %+v", r)
			}
			return nil
		}},
		{"/v1/run?algo=cole-vishkin&n=12&seed=7", func(r runResponse) error {
			if r.Host != "dcycle:12" || r.Size < 4 || r.Faults != nil {
				return fmt.Errorf("cole-vishkin: %+v", r)
			}
			return nil
		}},
		{"/v1/run?algo=gather&host=petersen&rmax=2", func(r runResponse) error {
			// Distinct IDs make every radius-2 view distinct: 10 types.
			if r.N != 10 || r.Size != 10 || r.Rounds != 3 {
				return fmt.Errorf("gather: %+v", r)
			}
			return nil
		}},
		{"/v1/run?algo=matching&host=cycle:16&faults=lossy:p=0.5&seed=3", func(r runResponse) error {
			if r.Faults == nil || r.Faults.Profile != "lossy:p=0.5" {
				return fmt.Errorf("faulty matching: %+v", r)
			}
			return nil
		}},
		{"/v1/run?algo=cole-vishkin&host=dcycle:32&faults=crash:f=2,by=1&seed=5", func(r runResponse) error {
			if r.Faults == nil || r.Faults.Crashed != 2 || r.Faults.Violations != 0 {
				return fmt.Errorf("faulty cole-vishkin: %+v", r)
			}
			return nil
		}},
	} {
		rr := do(t, s, tc.target)
		if rr.Code != 200 {
			t.Fatalf("%s: %d %s", tc.target, rr.Code, rr.Body.String())
		}
		var r runResponse
		if err := json.Unmarshal(rr.Body.Bytes(), &r); err != nil {
			t.Fatalf("%s: decode: %v", tc.target, err)
		}
		if err := tc.check(r); err != nil {
			t.Fatalf("%s: %v", tc.target, err)
		}
	}
}

// The n= and host= spellings of the same workload share one cache
// entry: the key is built from the canonical synthesized descriptor.
func TestRunKeyCanonicalization(t *testing.T) {
	s := New(Config{})
	if rr := do(t, s, "/v1/run?algo=matching&n=12"); rr.Code != 200 || rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("seed request: %d %q", rr.Code, rr.Header().Get("X-Cache"))
	}
	rr := do(t, s, "/v1/run?algo=matching&host=cycle:12")
	if rr.Code != 200 || rr.Header().Get("X-Cache") != "hit" {
		t.Fatalf("host= spelling should hit the n= entry: %d X-Cache %q", rr.Code, rr.Header().Get("X-Cache"))
	}
	if rr := do(t, s, "/v1/run?algo=matching&n=12&seed=2"); rr.Header().Get("X-Cache") != "miss" {
		t.Fatal("different seed must not share a cache entry")
	}
}

// Strict validation: every malformed request gets a 400 carrying the
// relevant grammar listing, before any computation is admitted.
func TestStrict400s(t *testing.T) {
	s := New(Config{})
	for _, tc := range []struct{ target, want string }{
		{"/v1/measure?host=cycle:12&rmax=2&bogus=1", "unknown parameter"},
		{"/v1/measure?rmax=2", "host families"},
		{"/v1/measure?host=cycle:12&rmax=99", "1..8"},
		{"/v1/measure?host=cycle:12&rmax=0", "1..8"},
		{"/v1/measure?host=nosuch:3&rmax=1", "host families"},
		{"/v1/measure?host=cycle:12&rmax=1&deadline_ms=-5", "deadline_ms"},
		{"/v1/run?algo=nosuch&n=12", "workloads:"},
		{"/v1/run?algo=matching", "exactly one of"},
		{"/v1/run?algo=matching&n=12&host=cycle:12", "exactly one of"},
		{"/v1/run?algo=matching&n=2", "n \"2\" out of range"},
		{"/v1/run?algo=matching&n=12&rmax=2", "only applies to the gather"},
		{"/v1/run?algo=matching&n=12&seed=zzz", "seed"},
		{"/v1/run?algo=matching&n=12&faults=nosuch:p=1", "fault profiles"},
		{"/v1/run?algo=cole-vishkin&host=petersen", "dcycle"},
	} {
		rr := do(t, s, tc.target)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: want 400, got %d (%s)", tc.target, rr.Code, rr.Body.String())
			continue
		}
		if !strings.Contains(rr.Body.String(), tc.want) {
			t.Errorf("%s: body missing %q:\n%s", tc.target, tc.want, rr.Body.String())
		}
	}
	if s.met.badRequests.Load() == 0 {
		t.Fatal("bad_requests counter never incremented")
	}
}

// Drill (b): a panicking computation becomes a stamped 500, the
// process keeps serving, and the failure is never cached — the next
// identical request recomputes and succeeds.
func TestPanicIsolationAndErrorNotCached(t *testing.T) {
	s := New(Config{})
	s.testHook = func(key string) {
		if strings.Contains(key, "petersen") {
			panic("injected workload panic")
		}
	}
	rr := do(t, s, "/v1/measure?host=petersen&rmax=1")
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: want 500, got %d (%s)", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "injected workload panic") {
		t.Fatalf("500 body not stamped with the panic: %s", rr.Body.String())
	}
	if s.met.panics.Load() != 1 {
		t.Fatalf("panics counter = %d, want 1", s.met.panics.Load())
	}
	// The server keeps serving after the panic.
	if rr := do(t, s, "/v1/measure?host=cycle:12&rmax=1"); rr.Code != 200 {
		t.Fatalf("request after panic: %d %s", rr.Code, rr.Body.String())
	}
	// The panic outcome was not cached: disarm the hook and retry.
	s.testHook = nil
	rr = do(t, s, "/v1/measure?host=petersen&rmax=1")
	if rr.Code != 200 || rr.Header().Get("X-Cache") != "miss" {
		t.Fatalf("retry after panic: %d X-Cache %q", rr.Code, rr.Header().Get("X-Cache"))
	}
	if rr := do(t, s, "/v1/measure?host=petersen&rmax=1"); rr.Header().Get("X-Cache") != "hit" {
		t.Fatal("successful retry should now be cached")
	}
	// A handler-layer panic (outside par.Catch) is also contained.
	s.met.panics.Store(0)
	s.testHook = nil
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("handler panic escaped ServeHTTP: %v", rec)
			}
		}()
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/run?algo=matching&n=12", nil))
		_ = rr
	}()
}

// Drill (c): a short-deadline request on a 10^6-node host returns 504
// via cooperative cancellation, and the worker budget drains back to
// zero — the engine does not keep grinding after the response.
func TestDeadlineCancelsLargeSweep(t *testing.T) {
	s := New(Config{})
	rr := do(t, s, "/v1/measure?host=torus:1000x1000&rmax=4&deadline_ms=1")
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("want 504, got %d (%s)", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "deadline exceeded") {
		t.Fatalf("504 body: %s", rr.Body.String())
	}
	if s.met.timeouts.Load() == 0 {
		t.Fatal("timeouts counter never incremented")
	}
	poll(t, "worker budget to drain", func() bool {
		return par.InUse() == 0 && s.adm.busy() == 0
	})
}

// Drill (d): concurrent identical requests collapse onto a single
// computation — one miss, N-1 collapsed waiters sharing the body —
// and repeats are O(1) cache hits.
func TestSingleflightCollapse(t *testing.T) {
	const N = 8
	s := New(Config{})
	gate := make(chan struct{})
	s.testHook = func(key string) { <-gate }
	type result struct {
		code int
		xc   string
		body string
	}
	results := make(chan result, N)
	for i := 0; i < N; i++ {
		go func() {
			rr := do(t, s, "/v1/measure?host=grid:9x9&rmax=2")
			results <- result{rr.Code, rr.Header().Get("X-Cache"), rr.Body.String()}
		}()
	}
	// Wait until the leader holds a worker slot and the other N-1 have
	// collapsed onto its flight, then release the computation.
	poll(t, "leader to start and waiters to collapse", func() bool {
		return s.met.inflight.Load() == 1 && s.met.collapsed.Load() == N-1
	})
	close(gate)
	var first string
	for i := 0; i < N; i++ {
		r := <-results
		if r.code != 200 {
			t.Fatalf("collapsed request failed: %d %s", r.code, r.body)
		}
		if first == "" {
			first = r.body
		} else if r.body != first {
			t.Fatal("collapsed requests returned different bodies")
		}
		_ = r.xc
	}
	if m, c := s.met.misses.Load(), s.met.collapsed.Load(); m != 1 || c != N-1 {
		t.Fatalf("misses=%d collapsed=%d, want 1/%d", m, c, N-1)
	}
	if rr := do(t, s, "/v1/measure?host=grid:9x9&rmax=2"); rr.Header().Get("X-Cache") != "hit" {
		t.Fatal("repeat after collapse should be a cache hit")
	}
}

// Drill (e): saturating the admission queue sheds with 429 +
// Retry-After instead of queuing unboundedly, and a request whose
// deadline dies while queued frees its slot without computing.
func TestAdmissionShedAndQueueDeadline(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1})
	gate := make(chan struct{})
	s.testHook = func(key string) { <-gate }
	codes := make(chan int, 2)
	go func() { codes <- do(t, s, "/v1/measure?host=cycle:12&rmax=1").Code }()
	poll(t, "first request to hold the worker", func() bool { return s.met.inflight.Load() == 1 })
	// Second request (distinct key, so no singleflight) fills the queue
	// and then dies there: its 30ms deadline fires before a slot frees.
	go func() { codes <- do(t, s, "/v1/measure?host=cycle:13&rmax=1&deadline_ms=30").Code }()
	poll(t, "second request to queue", func() bool { return s.adm.depth() == 1 })
	// Third request: worker busy, queue full -> immediate shed.
	rr := do(t, s, "/v1/measure?host=cycle:14&rmax=1")
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated: want 429, got %d (%s)", rr.Code, rr.Body.String())
	}
	// Retry-After is computed from live queue depth (1 queued here, so
	// at least 2 seconds); assert it is a positive integer.
	if ra, err := strconv.Atoi(rr.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 wants a positive integer Retry-After: %v", rr.Header())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("429 body should be JSON, got Content-Type %q", ct)
	}
	var shedBody struct {
		Error      string `json:"error"`
		RetryAfter int    `json:"retry_after_s"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &shedBody); err != nil || shedBody.Error == "" || shedBody.RetryAfter < 1 {
		t.Fatalf("429 body = %q, want JSON {error, retry_after_s}", rr.Body.String())
	}
	if s.met.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.met.shed.Load())
	}
	// The queued request times out with 504 and vacates the queue.
	if code := <-codes; code != http.StatusGatewayTimeout {
		t.Fatalf("queued request: want 504, got %d", code)
	}
	poll(t, "queue to drain", func() bool { return s.adm.depth() == 0 })
	close(gate)
	if code := <-codes; code != 200 {
		t.Fatalf("blocked request after release: want 200, got %d", code)
	}
	poll(t, "worker to free", func() bool { return s.adm.busy() == 0 })
}

// Drill (a): graceful shutdown over a real listener — BeginDrain
// flips readiness, http.Server.Shutdown drains the in-flight request
// to a 200, and Shutdown returns nil well inside the drain deadline.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{})
	gate := make(chan struct{})
	s.testHook = func(key string) { <-gate }
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	get := func(path string) (*http.Response, error) { return http.Get(base + path) }
	resp, err := get("/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz over the wire: %v %v", err, resp)
	}
	resp.Body.Close()

	inflightDone := make(chan int, 1)
	go func() {
		resp, err := get("/v1/measure?host=cycle:40&rmax=1")
		if err != nil {
			inflightDone <- -1
			return
		}
		resp.Body.Close()
		inflightDone <- resp.StatusCode
	}()
	poll(t, "in-flight request to start computing", func() bool { return s.met.inflight.Load() == 1 })

	s.BeginDrain()
	resp, err = get("/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %v %v", err, resp)
	}
	resp.Body.Close()

	shutDone := make(chan error, 1)
	go func() { shutDone <- hs.Shutdown(t.Context()) }()
	time.Sleep(10 * time.Millisecond) // let Shutdown begin waiting on the open conn
	close(gate)
	if code := <-inflightDone; code != 200 {
		t.Fatalf("in-flight request during drain: want 200, got %d", code)
	}
	select {
	case err := <-shutDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not complete")
	}
}

// The /v1/run response bodies are pinned byte for byte: every
// workload clean and under drop and crash schedules, gather also under
// duplicate+reorder and crash-recover, cole-vishkin and matching also
// at shards=2. Flood runs its default horizon of n rounds.
func TestRunBodiesPinned(t *testing.T) {
	s := New(Config{})
	for _, tc := range []struct{ target, want string }{
		{"/v1/run?algo=gather&host=torus:30x30&rmax=3",
			`{"host":"torus:30x30","algo":"gather","n":900,"seed":1,"rounds":4,"size":81}`},
		{"/v1/run?algo=gather&host=torus:30x30&rmax=3&faults=lossy:p=0.05&seed=3",
			`{"host":"torus:30x30","algo":"gather","n":900,"seed":3,"rounds":4,"size":746,"faults":{"profile":"lossy:p=0.05","crashed":0,"dropped":554,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0}}`},
		{"/v1/run?algo=gather&host=torus:20x20&rmax=2&faults=dup%2Breorder:p=0.25&seed=5",
			`{"host":"torus:20x20","algo":"gather","n":400,"seed":5,"rounds":3,"size":49,"faults":{"profile":"dup+reorder:p=0.25","crashed":0,"dropped":0,"duplicated":824,"reordered":800,"violations":0,"uncovered":0,"conflicts":0}}`},
		{"/v1/run?algo=gather&host=torus:20x20&rmax=3&faults=crash:f=30,by=2,recover=2&seed=9",
			`{"host":"torus:20x20","algo":"gather","n":400,"seed":9,"rounds":4,"size":320,"faults":{"profile":"crash:f=30,by=2,recover=2","crashed":0,"dropped":0,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0}}`},
		{"/v1/run?algo=cole-vishkin&host=dcycle:1000&seed=3",
			`{"host":"dcycle:1000","algo":"cole-vishkin","n":1000,"seed":3,"rounds":12,"size":437}`},
		{"/v1/run?algo=cole-vishkin&host=dcycle:1000&seed=3&faults=lossy:p=0.05",
			`{"host":"dcycle:1000","algo":"cole-vishkin","n":1000,"seed":3,"rounds":12,"size":461,"faults":{"profile":"lossy:p=0.05","crashed":0,"dropped":1098,"duplicated":0,"reordered":0,"violations":33,"uncovered":0,"conflicts":0}}`},
		{"/v1/run?algo=cole-vishkin&host=dcycle:1000&seed=3&faults=crash:f=40,by=8",
			`{"host":"dcycle:1000","algo":"cole-vishkin","n":1000,"seed":3,"rounds":12,"size":423,"faults":{"profile":"crash:f=40,by=8","crashed":40,"dropped":0,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0}}`},
		{"/v1/run?algo=cole-vishkin&host=dcycle:1000&seed=3&shards=2",
			`{"host":"dcycle:1000","algo":"cole-vishkin","n":1000,"seed":3,"rounds":12,"size":442,"sharded":{"p":2,"cross_arcs":4,"exchanged_words":44}}`},
		{"/v1/run?algo=cole-vishkin&host=dcycle:1000&seed=3&faults=lossy:p=0.05&shards=2",
			`{"host":"dcycle:1000","algo":"cole-vishkin","n":1000,"seed":3,"rounds":12,"size":463,"faults":{"profile":"lossy:p=0.05","crashed":0,"dropped":1098,"duplicated":0,"reordered":0,"violations":29,"uncovered":0,"conflicts":0},"sharded":{"p":2,"cross_arcs":4,"exchanged_words":44}}`},
		{"/v1/run?algo=cole-vishkin&host=dcycle:1000&seed=3&faults=crash:f=40,by=8&shards=2",
			`{"host":"dcycle:1000","algo":"cole-vishkin","n":1000,"seed":3,"rounds":12,"size":442,"faults":{"profile":"crash:f=40,by=8","crashed":40,"dropped":0,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0},"sharded":{"p":2,"cross_arcs":4,"exchanged_words":44}}`},
		{"/v1/run?algo=cole-vishkin&host=dcycle:16&shards=32",
			`{"host":"dcycle:16","algo":"cole-vishkin","n":16,"seed":1,"rounds":10,"size":6,"sharded":{"p":16,"cross_arcs":32,"exchanged_words":288}}`},
		{"/v1/run?algo=matching&host=torus:30x30&seed=3",
			`{"host":"torus:30x30","algo":"matching","n":900,"seed":3,"rounds":2,"size":108}`},
		{"/v1/run?algo=matching&host=torus:30x30&seed=3&faults=lossy:p=0.05",
			`{"host":"torus:30x30","algo":"matching","n":900,"seed":3,"rounds":2,"size":108,"faults":{"profile":"lossy:p=0.05","crashed":0,"dropped":53,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0}}`},
		{"/v1/run?algo=matching&host=torus:30x30&seed=3&faults=crash:f=40,by=2",
			`{"host":"torus:30x30","algo":"matching","n":900,"seed":3,"rounds":2,"size":99,"faults":{"profile":"crash:f=40,by=2","crashed":40,"dropped":0,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0}}`},
		{"/v1/run?algo=matching&host=torus:30x30&seed=3&shards=2",
			`{"host":"torus:30x30","algo":"matching","n":900,"seed":3,"rounds":2,"size":108,"sharded":{"p":2,"cross_arcs":120,"exchanged_words":21}}`},
		{"/v1/run?algo=matching&host=torus:30x30&seed=3&faults=lossy:p=0.05&shards=2",
			`{"host":"torus:30x30","algo":"matching","n":900,"seed":3,"rounds":2,"size":108,"faults":{"profile":"lossy:p=0.05","crashed":0,"dropped":54,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0},"sharded":{"p":2,"cross_arcs":120,"exchanged_words":21}}`},
		{"/v1/run?algo=matching&host=torus:30x30&seed=3&faults=crash:f=40,by=2&shards=2",
			`{"host":"torus:30x30","algo":"matching","n":900,"seed":3,"rounds":2,"size":99,"faults":{"profile":"crash:f=40,by=2","crashed":40,"dropped":0,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0},"sharded":{"p":2,"cross_arcs":120,"exchanged_words":21}}`},
		{"/v1/run?algo=flood&host=cycle:512&seed=3",
			`{"host":"cycle:512","algo":"flood","n":512,"seed":3,"rounds":513,"size":512}`},
		{"/v1/run?algo=flood&host=cycle:512&seed=3&faults=lossy:p=0.05",
			`{"host":"cycle:512","algo":"flood","n":512,"seed":3,"rounds":513,"size":512,"faults":{"profile":"lossy:p=0.05","crashed":0,"dropped":26237,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0}}`},
		{"/v1/run?algo=flood&host=cycle:512&seed=3&faults=crash:f=40,by=8",
			`{"host":"cycle:512","algo":"flood","n":512,"seed":3,"rounds":513,"size":20,"faults":{"profile":"crash:f=40,by=8","crashed":40,"dropped":0,"duplicated":0,"reordered":0,"violations":0,"uncovered":0,"conflicts":0}}`},
	} {
		rr := do(t, s, tc.target)
		if rr.Code != 200 || rr.Body.String() != tc.want {
			t.Errorf("%s: %d\n got  %s\n want %s", tc.target, rr.Code, rr.Body.String(), tc.want)
		}
	}
}
