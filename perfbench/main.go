// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every answer, and prints the
// end-to-end metrics (-trace 0) or the per-layer breakdown of a traced
// run (-trace 1); the last line of its output is one JSON object.
// perfbench/run.py builds localsim and this command from the checkout
// and runs it:
//
//	python3 perfbench/run.py --workload build_heavy --seed 1 --seconds 25 --trace 0
//
// Workloads (README.md gives the rationale and the metric targets):
//
//	build_heavy   flat localsim scale runs where construction dominates
//	rounds_heavy  localsim runs where the per-round step dominates
//	sweep         order.SweepMeasureAll on three host families
//	serve         in-process localapproxd handler: cold, warm and job phases
//
// The scale workloads run the localsim binary once per item; sweep and
// serve run in a child process of this command, so that every
// workload's peak RSS is its own. The traced run repeats the same calls
// in-process with a span around each call into a layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/par"
)

var workloads = []string{"build_heavy", "rounds_heavy", "sweep", "serve"}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	localsim string
	self     string
	work     string
	item     int // traced child of a scale workload: the item to run
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks every generated instance")
	seconds := flag.Int("seconds", 10, "measuring time of the run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.localsim, "localsim", "", "localsim binary built from this checkout")
	flag.StringVar(&cfg.work, "work", "", "scratch directory for traces and job stores")
	child := flag.String("child", "", "internal: run one pass of this kind in this process (ready, sweep, serve, trace)")
	flag.IntVar(&cfg.item, "item", 0, "internal: the scale item a trace child runs")
	flag.Parse()
	cfg.seconds = float64(*seconds)
	if *child != "" {
		if err := runChild(*child, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if !known(cfg.workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if cfg.localsim == "" || cfg.work == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -localsim, -work, -seconds >= 1 and -trace 0|1 (run it through perfbench/run.py)")
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg.self = exe
	fmt.Println("env:", envLine(cfg.seed))
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(cfg)
	} else {
		rep, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Println("FAIL:", f)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0 && len(rep.failures) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if rep.failed > 0 || len(rep.failures) > 0 {
		os.Exit(1)
	}
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}

// envLine records what the numbers depend on besides the code.
func envLine(seed int64) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d par=%d shards=%d serve_clients=%d go=%s GOGC=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), par.N(), shardWidth, clients(), runtime.Version(), gogc, seed)
}

// shardWidth is the -shards of the sharded items: the 2-core width the
// item sizes were chosen on. It is fixed, not nproc, so the answers and
// the cross-shard counts do not depend on the machine.
const shardWidth = 2

// clients is the closed-loop client count of the serve workload: two,
// or fewer on a machine with fewer cores.
func clients() int { return min(2, runtime.NumCPU()) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one benchmark run.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
}

func (r *report) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// runChild runs one pass in this process and prints its result as JSON
// on stdout.
func runChild(kind string, cfg config) error {
	var v any
	var err error
	switch kind {
	case "ready":
		// The process start probe of setup_s: everything before the
		// first layer call, then exit.
		return nil
	case "sweep":
		v = sweepPasses(cfg.seconds, nil)
	case "serve":
		v, err = servePasses(cfg.seed, cfg.seconds, cfg.work, nil)
	case "trace":
		v, err = traceChild(cfg)
	default:
		return fmt.Errorf("unknown child %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}
