package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRunSharded: the shards= path of /v1/run answers with the sharded
// block, caches like any other run, degrades under fault profiles, and
// validates its parameters strictly.
func TestRunSharded(t *testing.T) {
	s := New(Config{})
	rr := do(t, s, "/v1/run?algo=cole-vishkin&n=64&seed=7&shards=4")
	if rr.Code != 200 {
		t.Fatalf("sharded run: %d %s", rr.Code, rr.Body.String())
	}
	var r runResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Host != "dcycle:64" || r.Size < 16 || r.Sharded == nil {
		t.Fatalf("sharded cole-vishkin: %+v", r)
	}
	if r.Sharded.P != 4 || r.Sharded.CrossArcs != 8 || r.Sharded.ExchangedWords < 1 {
		t.Fatalf("sharded block: %+v", r.Sharded)
	}
	// A repeat is a cache hit; the flat spelling of the same tuple is
	// a separate entry (different ids, different body shape).
	if rr2 := do(t, s, "/v1/run?algo=cole-vishkin&n=64&seed=7&shards=4"); rr2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat sharded run: X-Cache %q", rr2.Header().Get("X-Cache"))
	}
	if rr3 := do(t, s, "/v1/run?algo=cole-vishkin&n=64&seed=7"); rr3.Header().Get("X-Cache") != "miss" {
		t.Fatalf("flat spelling aliased the sharded entry")
	}

	// Faulty sharded matching: fault block and sharded block together.
	rr = do(t, s, "/v1/run?algo=matching&host=torus:4x4&seed=3&faults=lossy:p=0.4&shards=2")
	if rr.Code != 200 {
		t.Fatalf("faulty sharded run: %d %s", rr.Code, rr.Body.String())
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &r); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Faults == nil || r.Faults.Profile != "lossy:p=0.4" || r.Sharded == nil || r.Sharded.P != 2 {
		t.Fatalf("faulty sharded matching: %+v (sharded %+v)", r, r.Sharded)
	}

	// Strict validation.
	for _, target := range []string{
		"/v1/run?algo=gather&host=petersen&shards=2", // unsupported workload
		"/v1/run?algo=matching&n=12&shards=0",        // out of range
		"/v1/run?algo=matching&n=12&shards=x",        // not an integer
	} {
		if rr := do(t, s, target); rr.Code != 400 {
			t.Fatalf("%s: want 400, got %d %s", target, rr.Code, rr.Body.String())
		}
	}
	if rr := do(t, s, "/v1/measure?host=cycle:24&rmax=2&shards=2"); rr.Code != 400 {
		t.Fatalf("measure with shards: want 400, got %d", rr.Code)
	}
}

// TestMetricsShardedBlock: /metrics serves the per-shard occupancy and
// exchange-volume gauges after a sharded run.
func TestMetricsShardedBlock(t *testing.T) {
	s := New(Config{})
	if rr := do(t, s, "/v1/run?algo=matching&n=40&seed=2&shards=4"); rr.Code != 200 {
		t.Fatalf("sharded run: %d %s", rr.Code, rr.Body.String())
	}
	rr := do(t, s, "/metrics")
	if rr.Code != 200 {
		t.Fatalf("metrics: %d", rr.Code)
	}
	var m struct {
		Sharded struct {
			Runs           int64            `json:"runs"`
			ExchangedTotal int64            `json:"exchanged_words_total"`
			Live           []map[string]any `json:"live"`
			LastRun        struct {
				Host     string `json:"host"`
				Shards   int64  `json:"shards"`
				PerShard []struct {
					Shard       int64 `json:"shard"`
					Lo          int64 `json:"lo"`
					Hi          int64 `json:"hi"`
					Slots       int64 `json:"slots"`
					ExchangeOut int64 `json:"exchange_out"`
					Exchanged   int64 `json:"exchanged"`
				} `json:"per_shard"`
			} `json:"last_run"`
		} `json:"sharded"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &m); err != nil {
		t.Fatalf("decode metrics: %v\n%s", err, rr.Body.String())
	}
	sh := m.Sharded
	if sh.Runs != 1 || sh.ExchangedTotal < 1 || len(sh.Live) != 0 {
		t.Fatalf("sharded gauges: %+v", sh)
	}
	if sh.LastRun.Host != "cycle:40" || sh.LastRun.Shards != 4 || len(sh.LastRun.PerShard) != 4 {
		t.Fatalf("last run: %+v", sh.LastRun)
	}
	var lo int64
	for i, ps := range sh.LastRun.PerShard {
		if ps.Shard != int64(i) || ps.Lo != lo || ps.Hi <= ps.Lo || ps.Slots < 1 {
			t.Fatalf("per-shard %d: %+v", i, ps)
		}
		lo = ps.Hi
	}
	if lo != 40 {
		t.Fatalf("shard ranges cover %d nodes, want 40", lo)
	}
	if !strings.Contains(rr.Body.String(), "exchange_out") {
		t.Fatal("metrics body missing exchange_out")
	}
}

// A shard count past model.MaxShards answers 400 before the engine
// allocates anything, and the server keeps serving.
func TestRunShardsCapped(t *testing.T) {
	s := New(Config{})
	rr := do(t, s, "/v1/run?algo=cole-vishkin&n=100000&shards=100000")
	if rr.Code != 400 || !strings.Contains(rr.Body.String(), "shard count 100000 out of range") {
		t.Fatalf("oversized shards: %d %s", rr.Code, rr.Body.String())
	}
	if rr := do(t, s, "/healthz"); rr.Code != 200 {
		t.Fatalf("healthz after oversized shards: %d", rr.Code)
	}
}
