package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// span is one traced call into a layer: its interval on the monotonic
// clock (nanoseconds since the tracer started), the span that caused it
// (-1 for a root), the process-wide heap allocation and GC-cycle deltas
// over the interval, and, for algorithm calls, the node-rounds of work
// done. Concurrent spans (the serve clients) see each other's
// allocations in their deltas.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Alloc  uint64 `json:"alloc_bytes"`
	GC     uint64 `json:"gc_cycles"`
	Work   int64  `json:"node_rounds,omitempty"`
}

// tracer keeps spans in memory until the pass ends. A nil *tracer is
// the untraced mode: begin returns -1 and end does nothing, so the
// end-to-end passes run the same code with no tracing cost beyond a
// nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// sampleRuntime reads cumulative heap allocation and completed GC
// cycles.
func sampleRuntime() (alloc, gc uint64) {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// begin opens a span under parent and returns its handle.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	alloc, gc := sampleRuntime()
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Alloc: alloc, GC: gc})
	return len(t.spans) - 1
}

// end closes span i, turning its start samples into deltas.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	alloc, gc := sampleRuntime()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.End = end
	s.Alloc = alloc - s.Alloc
	s.GC = gc - s.GC
}

// work records node-rounds done inside span i.
func (t *tracer) work(i int, nodeRounds int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].Work = nodeRounds
	t.mu.Unlock()
}

// call runs fn inside a span.
func (t *tracer) call(name string, parent int, fn func()) {
	i := t.begin(name, parent)
	fn()
	t.end(i)
}
