package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProbes is how many times a run measures set-up; setup_s is the
// median. A process start takes 1.5 to 20 ms on a 2-core VM, so it takes
// many probes for a steady median.
const setupProbes = 61

// proc is one finished child process.
type proc struct {
	out   []byte
	wall  float64 // seconds from start to exit
	rssKB int64   // peak resident set size
}

// runProc runs a child process to completion.
func runProc(name string, args ...string) (proc, error) {
	cmd := exec.Command(name, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	p := proc{out: out.Bytes(), wall: time.Since(start).Seconds()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.rssKB = ru.Maxrss
	}
	if err != nil {
		return p, fmt.Errorf("%s %v: %w: %s", name, args, err, bytes.TrimSpace(errb.Bytes()))
	}
	return p, nil
}

// runChildJSON runs this command as a child pass and decodes its JSON.
func runChildJSON(cfg config, v any, args ...string) error {
	p, err := runProc(cfg.self, append([]string{"-seed", strconv.FormatInt(cfg.seed, 10), "-work", cfg.work}, args...)...)
	if err != nil {
		return err
	}
	return json.Unmarshal(p.out, v)
}

// opsResult is a workload measured as a fixed list of operations run
// once per pass: the scale items or the sweep hosts.
type opsResult struct {
	Labels    []string    `json:"labels"`
	Lat       [][]float64 `json:"lat"` // [pass][op] seconds
	Answers   []string    `json:"answers"`
	Attempted int         `json:"attempted"`
	Failures  []string    `json:"failures"`
	Types     int         `json:"types"`   // sweep: ball types over every host and radius
	RSSKB     [][]int64   `json:"rss_kb"`  // [pass][op] peak RSS while the op ran
	Runtime   rtDelta     `json:"runtime"` // sweep: summed over the ops
}

// opMedians is each operation's median over passes. One run of an
// operation on a 2-core VM varies by up to a quarter between
// consecutive identical runs, so the metrics are built from these.
func opMedians[T int64 | float64](passes [][]T) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	for k := range out {
		var xs []float64
		for _, pass := range passes {
			xs = append(xs, float64(pass[k]))
		}
		out[k] = median(xs)
	}
	return out
}

// wall is the sum over operations of each one's median latency.
func (o *opsResult) wall() float64 {
	w := 0.0
	for _, x := range opMedians(o.Lat) {
		w += x
	}
	return w
}

// resetPeakRSS clears the kernel's peak-RSS mark of this process, so
// that peakRSSKB measures from here on.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSKB reads this process's peak RSS since the last reset (0 where
// /proc does not give it).
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	if !ok {
		return 0
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseInt(f[0], 10, 64)
	return kb
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(cfg config) (*report, error) {
	rep := &report{metrics: map[string]metric{}}
	var setup []float64
	if cfg.workload != "serve" { // serve measures its set-up inside the child
		probe := []string{cfg.localsim, "-algo", "cole-vishkin", "-host", "dcycle:16", "-seed", strconv.FormatInt(cfg.seed, 10)}
		if cfg.workload == "sweep" {
			probe = []string{cfg.self, "-child", "ready"}
		}
		for range setupProbes {
			p, err := runProc(probe[0], probe[1:]...)
			if err != nil {
				return nil, fmt.Errorf("set-up probe: %w", err)
			}
			setup = append(setup, p.wall)
		}
	}
	set := func(name string, v float64, unit string) { rep.metrics[name] = metric{v, unit} }
	switch cfg.workload {
	case "serve":
		var sr serveResult
		if err := runChildJSON(cfg, &sr, "-child", "serve", "-seconds", strconv.Itoa(int(cfg.seconds))); err != nil {
			return nil, err
		}
		rep.attempted, rep.failed = sr.Attempted, sr.Failed
		rep.failures = sr.Failures
		set("setup_s", median(sr.Setup), "s")
		set("wall_s", median(sr.Walls), "s")
		set("peak_rss_mb", median(toFloats(sr.RSSKB))/1024, "MiB")
		set("req_per_s", median(sr.Rates), "1/s")
		cold := opMedians(sr.Cold)
		set("cold_p50_ms", quantile(cold, 0.5)*1e3, "ms")
		set("cold_p90_ms", quantile(cold, 0.9)*1e3, "ms")
		printSummary(rep, len(sr.Walls), len(cold))
		fmt.Printf("  hit_p50_us   %.1f us (n=%d)\n  hit_p99_us   %.1f us\n  job_p50_ms   %.2f ms (n=%d)\n",
			quantile(sr.Hits, 0.5)*1e6, len(sr.Hits), quantile(sr.Hits, 0.99)*1e6, quantile(sr.Jobs, 0.5)*1e3, len(sr.Jobs))
		return rep, nil
	case "sweep":
		var or opsResult
		if err := runChildJSON(cfg, &or, "-child", "sweep", "-seconds", strconv.Itoa(int(cfg.seconds))); err != nil {
			return nil, err
		}
		opsMetrics(rep, &or, setup)
	default:
		items, err := scaleItems(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		or := scalePasses(cfg, items, time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))))
		opsMetrics(rep, or, setup)
	}
	fmt.Println("  hit_p50_us   n/a (no cache on this workload)\n  hit_p99_us   n/a\n  job_p50_ms   n/a (no jobs on this workload)")
	return rep, nil
}

// opsMetrics fills the end-to-end metrics of an operation-list workload.
// Peak RSS is the largest of the operations' median peaks.
func opsMetrics(rep *report, or *opsResult, setup []float64) {
	rep.attempted, rep.failed = or.Attempted, len(or.Failures)
	rep.failures = or.Failures
	wall := or.wall()
	lat := opMedians(or.Lat)
	rep.metrics["setup_s"] = metric{median(setup), "s"}
	rep.metrics["wall_s"] = metric{wall, "s"}
	rep.metrics["peak_rss_mb"] = metric{quantile(opMedians(or.RSSKB), 1) / 1024, "MiB"}
	rep.metrics["req_per_s"] = metric{float64(len(lat)) / wall, "1/s"}
	rep.metrics["cold_p50_ms"] = metric{quantile(lat, 0.5) * 1e3, "ms"}
	rep.metrics["cold_p90_ms"] = metric{quantile(lat, 0.9) * 1e3, "ms"}
	printSummary(rep, len(or.Lat), len(lat))
}

func toFloats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// printSummary prints the end-to-end metrics one per line, ahead of the
// JSON line.
func printSummary(rep *report, passes, ops int) {
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("end-to-end (%d passes; percentiles over the medians of %d cold operations):\n", passes, ops)
	for _, k := range names {
		fmt.Printf("  %-12s %.6g %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	fmt.Printf("  %-12s %.6g (%d of %d failed)\n", "error_rate", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
}

// scalePasses runs every item through localsim once per pass until the
// deadline would be overrun by another pass (at least one pass).
func scalePasses(cfg config, items []item, deadline time.Time) *opsResult {
	or := &opsResult{}
	for _, it := range items {
		or.Labels = append(or.Labels, it.label())
	}
	for {
		start := time.Now()
		lat := make([]float64, len(items))
		rss := make([]int64, len(items))
		for k, it := range items {
			or.Attempted++
			p, err := runProc(cfg.localsim, it.args()...)
			lat[k], rss[k] = p.wall, p.rssKB
			var ans answer
			if err == nil {
				ans, err = parseLocalsim(it, string(p.out))
			}
			if err != nil {
				or.Failures = append(or.Failures, fmt.Sprintf("%s: %v", it.label(), err))
			}
			if len(or.Lat) == 0 {
				or.Answers = append(or.Answers, ans.String())
			}
		}
		or.Lat = append(or.Lat, lat)
		or.RSSKB = append(or.RSSKB, rss)
		if time.Now().Add(time.Since(start)).After(deadline) {
			return or
		}
	}
}

func (a answer) String() string {
	return fmt.Sprintf("rounds=%d size=%d leader=%d converged=%d cross_arcs=%d exchanged_words=%d",
		a.Rounds, a.Size, a.Leader, a.Converged, a.CrossArcs, a.ExchangedWords)
}

var (
	reRounds    = regexp.MustCompile(`rounds: (\d+)`)
	reSize      = regexp.MustCompile(`\|(?:MIS|M)\| = (\d+)|view types: (\d+)`)
	reLeader    = regexp.MustCompile(`leader: (\d+)   converged@: (\d+)`)
	reN         = regexp.MustCompile(`\(n=(\d+)`)
	reCross     = regexp.MustCompile(`cross-shard arcs: (\d+)   exchanged words: (\d+)`)
	reConflicts = regexp.MustCompile(`conflicts: (\d+)`)
)

// parseLocalsim reads a scale-mode answer from localsim's output and
// checks it: "feasible: yes" (localsim verified the solution), zero
// conflicts, view types > 0, and flood convergence.
func parseLocalsim(it item, out string) (answer, error) {
	var a answer
	num := func(re *regexp.Regexp, group int) (int64, bool) {
		m := re.FindStringSubmatch(out)
		if m == nil {
			return 0, false
		}
		for g := group; g < len(m); g++ {
			if m[g] != "" {
				v, err := strconv.ParseInt(m[g], 10, 64)
				return v, err == nil
			}
		}
		return 0, false
	}
	r, ok := num(reRounds, 1)
	if !ok {
		return a, fmt.Errorf("no rounds in localsim output %q", out)
	}
	a.Rounds = int(r)
	if it.Shards > 0 {
		m := reCross.FindStringSubmatch(out)
		if m == nil {
			return a, fmt.Errorf("no shard line in localsim output %q", out)
		}
		a.CrossArcs, _ = strconv.ParseInt(m[1], 10, 64)
		a.ExchangedWords, _ = strconv.ParseInt(m[2], 10, 64)
	}
	switch it.Algo {
	case "flood":
		m := reLeader.FindStringSubmatch(out)
		n, okN := num(reN, 1)
		if m == nil || !okN {
			return a, fmt.Errorf("no flood result in localsim output %q", out)
		}
		a.Leader, _ = strconv.Atoi(m[1])
		a.Converged, _ = strconv.Atoi(m[2])
		return a, checkFlood(int(n), it.Rounds, a.Converged)
	case "gather":
		a.Size, _ = num(reSize, 2)
		if a.Size <= 0 {
			return a, fmt.Errorf("no view types in localsim output %q", out)
		}
		return a, nil
	}
	var okSize bool
	if a.Size, okSize = num(reSize, 1); !okSize {
		return a, fmt.Errorf("no solution size in localsim output %q", out)
	}
	if it.Shards > 0 && it.Algo == "matching" {
		if c, ok := num(reConflicts, 1); !ok || c != 0 {
			return a, fmt.Errorf("sharded matching conflicts in localsim output %q", out)
		}
		return a, nil
	}
	if !strings.Contains(out, "feasible: yes") {
		return a, fmt.Errorf("localsim did not report a feasible solution: %q", out)
	}
	return a, nil
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
