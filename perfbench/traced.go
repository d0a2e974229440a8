package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// traceResult is one workload's traced pass.
type traceResult struct {
	Workload string `json:"workload"`
	// Wall is the traced pass time: the sum of the root spans other
	// than set-up, comparable with the untraced wall_s.
	Wall      float64            `json:"wall_s"`
	Answers   []string           `json:"answers"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures"`
	Counts    map[string]float64 `json:"counts"`
	Runtime   rtDelta            `json:"runtime"`
	Spans     []span             `json:"spans"`
}

// rtDelta is the runtime's account of a pass.
type rtDelta struct {
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"` // automatic cycles only
	GCPauseS float64 `json:"gc_pause_s"`
}

type rtSample struct{ alloc, autoGC, pauseNs uint64 }

func readRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSample{ms.TotalAlloc, uint64(ms.NumGC - ms.NumForcedGC), ms.PauseTotalNs}
}

func (d *rtDelta) add(a, b rtSample) {
	d.AllocMB += float64(b.alloc-a.alloc) / (1 << 20)
	d.GCCycles += float64(b.autoGC - a.autoGC)
	d.GCPauseS += float64(b.pauseNs-a.pauseNs) / 1e9
}

// traceChild runs the traced pass of cfg.workload in this process.
func traceChild(cfg config) (*traceResult, error) {
	t := newTracer()
	tr := &traceResult{Workload: cfg.workload, Counts: map[string]float64{}}
	switch cfg.workload {
	case "sweep":
		or := sweepPasses(0, t)
		tr.Runtime = or.Runtime
		tr.Answers, tr.Attempted, tr.Failures = or.Answers, or.Attempted, or.Failures
		tr.Failed = len(or.Failures)
		tr.Counts["order.types"] = float64(or.Types)
	case "serve":
		// Set-up is outside the runtime delta, as it is outside wall_s.
		sr, err := servePasses(cfg.seed, 0, cfg.work, t)
		if err != nil {
			return nil, err
		}
		tr.Answers, tr.Attempted, tr.Failed, tr.Failures = []string{sr.Answer}, sr.Attempted, sr.Failed, sr.Failures
		tr.Runtime = sr.Runtime
		tr.Counts["serve.cache_hit_ratio"] = sr.HitRatio
		tr.Counts["serve.shed"] = float64(sr.Shed)
		tr.Counts["serve.hit_p50_us"] = quantile(sr.Hits, 0.5) * 1e6
		tr.Counts["serve.hit_p99_us"] = quantile(sr.Hits, 0.99) * 1e6
		tr.Counts["job.p50_ms"] = quantile(sr.Jobs, 0.5) * 1e3
		tr.Counts["job.checkpoints"] = float64(sr.Checkpoints)
		tr.Counts["ckpt.bytes"] = float64(sr.CkptBytes)
	default:
		// One item per process, as localsim runs it.
		items, err := scaleItems(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		if cfg.item < 0 || cfg.item >= len(items) {
			return nil, fmt.Errorf("no item %d in %s", cfg.item, cfg.workload)
		}
		it := items[cfg.item]
		before := readRuntime()
		root := t.begin("item:"+it.label(), -1)
		ans, err := traceItem(t, root, it)
		t.end(root)
		tr.Runtime.add(before, readRuntime())
		tr.Attempted++
		if err != nil {
			tr.Failed++
			tr.Failures = append(tr.Failures, fmt.Sprintf("%s: %v", it.label(), err))
		}
		tr.Answers = []string{ans.String()}
		tr.Counts["algorithms.rounds"] = float64(ans.Rounds)
		tr.Counts["model.cross_arcs"] = float64(ans.CrossArcs)
		tr.Counts["model.exchanged_words"] = float64(ans.ExchangedWords)
	}
	tr.Spans = t.spans
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name != "setup" {
			tr.Wall += float64(s.End-s.Start) / 1e9
		}
	}
	return tr, nil
}

// Per-layer metrics built from span names: <name>_s is the summed self
// time of the spans of that name, <name>_alloc_mb their allocation.
var (
	layerTimes = []string{
		"host.parse", "digraph.from_ports", "ids.draw", "model.new_engine", "model.new_sharded_engine",
		"model.gather", "algorithms.cv", "algorithms.matching", "algorithms.flood", "algorithms.cv_sharded",
		"algorithms.matching_sharded", "problems.feasible", "order.sweep_torus", "order.sweep_rr",
		"order.sweep_expander", "serve.cold", "serve.hit", "job.run",
	}
	layerAllocs = []string{"host.parse", "digraph.from_ports", "ids.draw", "model.new_engine", "model.new_sharded_engine"}
	// countUnits are the per-layer metrics the traced passes count.
	countUnits = map[string]string{
		"algorithms.rounds": "count", "model.cross_arcs": "count", "model.exchanged_words": "count",
		"order.types": "count", "serve.cache_hit_ratio": "ratio", "serve.shed": "count",
		"serve.hit_p50_us": "us", "serve.hit_p99_us": "us", "job.p50_ms": "ms",
		"job.checkpoints": "count", "ckpt.bytes": "B",
	}
	flatAlgos    = []string{"algorithms.cv", "algorithms.matching", "algorithms.flood"}
	shardedAlgos = []string{"algorithms.cv_sharded", "algorithms.matching_sharded"}
)

// runTraced is the -trace 1 run. It makes one untraced pass of the
// workload, then the traced pass of every workload, each in its own
// process: every per-layer metric belongs to one workload's layers, and
// each traced run reports all of them. The runtime and trace metrics
// describe the selected workload, whose traced answers must equal its
// untraced ones.
func runTraced(cfg config) (*report, error) {
	rep := &report{metrics: map[string]metric{}}
	var wall float64
	var answers []string
	switch cfg.workload {
	case "serve":
		var sr serveResult
		if err := runChildJSON(cfg, &sr, "-child", "serve", "-seconds", "0"); err != nil {
			return nil, err
		}
		wall, answers = sr.Walls[0], []string{sr.Answer}
		rep.attempted, rep.failed = sr.Attempted, sr.Failed
		rep.failures = sr.Failures
	case "sweep":
		var or opsResult
		if err := runChildJSON(cfg, &or, "-child", "sweep", "-seconds", "0"); err != nil {
			return nil, err
		}
		wall, answers = or.wall(), or.Answers
		rep.attempted, rep.failed, rep.failures = or.Attempted, len(or.Failures), or.Failures
	default:
		items, err := scaleItems(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		or := scalePasses(cfg, items, time.Now())
		wall, answers = or.wall(), or.Answers
		rep.attempted, rep.failed, rep.failures = or.Attempted, len(or.Failures), or.Failures
	}
	traces := map[string]*traceResult{}
	for _, w := range workloads {
		tr, err := traceWorkload(cfg, w)
		if err != nil {
			return nil, err
		}
		traces[w] = tr
		rep.attempted += tr.Attempted
		rep.failed += tr.Failed
		for _, f := range tr.Failures {
			rep.fail("traced %s: %s", w, f)
		}
	}
	own := traces[cfg.workload]
	if len(own.Answers) != len(answers) {
		rep.failed++
		rep.fail("traced run has %d answers, untraced run %d", len(own.Answers), len(answers))
	} else {
		for i := range answers {
			rep.attempted++
			if own.Answers[i] != answers[i] {
				rep.failed++
				rep.fail("answer %d: traced %q, untraced %q", i, own.Answers[i], answers[i])
			}
		}
	}
	if err := writeTraces(cfg, traces); err != nil {
		return nil, err
	}

	set := func(name string, v float64, unit string) { rep.metrics[name] = metric{v, unit} }
	self, dur, alloc, work := map[string]float64{}, map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, tr := range traces {
		for name, s := range selfTimes(tr.Spans) {
			self[name] += s
		}
		for _, s := range tr.Spans {
			dur[s.Name] += float64(s.End-s.Start) / 1e9
			alloc[s.Name] += float64(s.Alloc) / (1 << 20)
			work[s.Name] += float64(s.Work)
		}
		for k, v := range tr.Counts {
			rep.metrics[k] = metric{rep.metrics[k].Value + v, countUnits[k]}
		}
	}
	for _, name := range layerTimes {
		set(name+"_s", self[name], "s")
	}
	for _, name := range layerAllocs {
		set(name+"_alloc_mb", alloc[name], "MiB")
	}
	set("order.sweep_alloc_mb", alloc["order.sweep_torus"]+alloc["order.sweep_rr"]+alloc["order.sweep_expander"], "MiB")
	rate := func(names []string) float64 {
		var w, d float64
		for _, n := range names {
			w, d = w+work[n], d+dur[n]
		}
		return w / d
	}
	set("algorithms.flat_node_rounds_per_s", rate(flatAlgos), "1/s")
	set("algorithms.sharded_node_rounds_per_s", rate(shardedAlgos), "1/s")
	set("runtime.alloc_mb", own.Runtime.AllocMB, "MiB")
	set("runtime.gc_cycles", own.Runtime.GCCycles, "count")
	set("runtime.gc_pause_s", own.Runtime.GCPauseS, "s")
	set("trace.overhead_s", own.Wall-wall, "s")
	set("trace.coverage", coverage(own.Spans)/own.Wall, "ratio")
	fmt.Printf("traced %s: wall %.4f s traced, %.4f s untraced; spans written to %s\n",
		cfg.workload, own.Wall, wall, tracePath(cfg))
	printLayers(rep)
	return rep, nil
}

// traceWorkload runs the traced pass of workload w: one child process,
// or one per item for the scale workloads, merged in item order.
func traceWorkload(cfg config, w string) (*traceResult, error) {
	n := 1
	if items, err := scaleItems(w, cfg.seed); err == nil {
		n = len(items)
	}
	out := &traceResult{Workload: w, Counts: map[string]float64{}}
	for k := range n {
		var tr traceResult
		if err := runChildJSON(cfg, &tr, "-child", "trace", "-workload", w, "-item", strconv.Itoa(k)); err != nil {
			return nil, err
		}
		base := len(out.Spans)
		for _, s := range tr.Spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out.Spans = append(out.Spans, s)
		}
		out.Wall += tr.Wall
		out.Answers = append(out.Answers, tr.Answers...)
		out.Attempted += tr.Attempted
		out.Failed += tr.Failed
		out.Failures = append(out.Failures, tr.Failures...)
		for k, v := range tr.Counts {
			out.Counts[k] += v
		}
		out.Runtime.AllocMB += tr.Runtime.AllocMB
		out.Runtime.GCCycles += tr.Runtime.GCCycles
		out.Runtime.GCPauseS += tr.Runtime.GCPauseS
	}
	return out, nil
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += float64(s.End-s.Start-unionNs(children[i])) / 1e9
	}
	return out
}

// coverage is the time the layer spans (children of the non-set-up
// roots) cover, in seconds.
func coverage(spans []span) float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name != "setup" && spans[s.Parent].Parent < 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var ns int64
	for _, c := range children {
		ns += unionNs(c)
	}
	return float64(ns) / 1e9
}

// unionNs is the length of the union of the spans' intervals; the serve
// clients' spans overlap.
func unionNs(spans []span) int64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, end int64 = 0, -1
	for _, x := range s {
		if x.Start > end {
			total += x.End - x.Start
			end = x.End
		} else if x.End > end {
			total += x.End - end
			end = x.End
		}
	}
	return total
}

func tracePath(cfg config) string {
	return filepath.Join(cfg.work, "traces", cfg.workload+"-seed"+strconv.FormatInt(cfg.seed, 10)+".json")
}

// writeTraces writes every span of the run, once, at the end.
func writeTraces(cfg config, traces map[string]*traceResult) error {
	if err := os.MkdirAll(filepath.Dir(tracePath(cfg)), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(traces, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(tracePath(cfg), b, 0o644)
}

func printLayers(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("per-layer (traced):")
	for _, k := range names {
		fmt.Printf("  %-38s %.6g %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	fmt.Printf("  %-38s %d of %d failed\n", "checks", rep.failed, rep.attempted)
}
