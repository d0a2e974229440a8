package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/serve"
)

// binPath is the localsim binary built once by TestMain.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "localsim-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "localsim")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building localsim: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Every usage mistake — unknown name or out-of-range flag on -host,
// -faults, -algo, -alg, -graph, -rmax — exits status 2 and prints the
// relevant registry or grammar listing, so the error message is
// enough to repair the invocation.
func TestUsageErrorsExitTwoWithListing(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad host", []string{"-host", "nosuch:3"}, "registered host families:"},
		{"bad host params", []string{"-host", "cycle:12,bogus=1"}, "unused arguments"},
		{"bad faults", []string{"-algo", "matching", "-n", "12", "-faults", "nosuch:p=1"}, "fault profiles:"},
		{"faults without algo", []string{"-faults", "lossy:p=0.1"}, "-faults needs -algo"},
		{"bad algo", []string{"-algo", "nosuch", "-n", "12"}, "scale workloads:"},
		{"bad alg", []string{"-alg", "nosuch"}, "algorithms:"},
		{"bad graph", []string{"-graph", "nosuch"}, "graph families:"},
		{"rmax too big", []string{"-rmax", "99"}, "valid radii: 1..8"},
		{"rmax zero", []string{"-rmax", "0"}, "valid radii: 1..8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(binPath, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("want exit error, got %v\n%s", err, out)
			}
			if ee.ExitCode() != 2 {
				t.Fatalf("exit code %d, want 2\n%s", ee.ExitCode(), out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// A shard count past model.MaxShards fails with an error (exit 1)
// before the sharded engine allocates anything.
func TestOversizedShardsRejected(t *testing.T) {
	out, err := exec.Command(binPath, "-algo", "cole-vishkin", "-n", "100000", "-shards", "100000").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "shard count 100000 out of range") {
		t.Fatalf("unexpected error:\n%s", out)
	}
}

// A valid invocation still exits 0.
func TestValidInvocationExitsZero(t *testing.T) {
	out, err := exec.Command(binPath, "-alg", "eds-one-out", "-graph", "cycle", "-n", "12").CombinedOutput()
	if err != nil {
		t.Fatalf("valid run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ratio") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// Scale-mode stdout is pinned byte for byte, wall times stripped: every
// workload clean, lossy and crash-stop, flat and at -shards 2.
func TestScaleResultLinesPinned(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-algo gather -host torus:200x200 -rmax 2",
			"scale mode: gather on torus:200x200 (n=40000, m=80000)\n" +
				"rounds: 3   radius-2 view types: 49   wall:"},
		{"-algo gather -host torus:30x30 -rmax 3 -faults lossy:p=0.05",
			"scale mode: gather on torus:30x30 (n=900, m=1800) under faults lossy:p=0.05\n" +
				"rounds: 4   radius-3 view types: 720   crashed: 0   dropped: 538   wall:"},
		{"-algo gather -host torus:30x30 -rmax 2 -faults crash:f=40,by=2",
			"scale mode: gather on torus:30x30 (n=900, m=1800) under faults crash:f=40,by=2\n" +
				"rounds: 3   radius-2 view types: 133   crashed: 40   dropped: 0   wall:"},
		{"-algo cole-vishkin -host dcycle:1000 -seed 3",
			"scale mode: cole-vishkin on dcycle:1000 (n=1000, m=1000)\n" +
				"rounds: 12   |MIS| = 437   |MIS|/n = 0.4370   feasible: yes   wall:"},
		{"-algo cole-vishkin -host dcycle:1000 -seed 3 -faults lossy:p=0.05",
			"scale mode: cole-vishkin on dcycle:1000 (n=1000, m=1000) under faults lossy:p=0.05\n" +
				"rounds: 12   |MIS| = 461   crashed: 0   dropped: 1098   violations: 33   uncovered: 0   wall:"},
		{"-algo cole-vishkin -host dcycle:1000 -seed 3 -faults crash:f=40,by=8",
			"scale mode: cole-vishkin on dcycle:1000 (n=1000, m=1000) under faults crash:f=40,by=8\n" +
				"rounds: 12   |MIS| = 423   crashed: 40   dropped: 0   violations: 0   uncovered: 0   wall:"},
		{"-algo cole-vishkin -host dcycle:1000 -seed 3 -shards 2",
			"sharded scale mode: cole-vishkin on dcycle:1000 (n=1000, P=2)\n" +
				"rounds: 12   |MIS| = 442   |MIS|/n = 0.4420   feasible: yes   wall:\n" +
				"shards: 2   cross-shard arcs: 4   exchanged words: 44"},
		{"-algo cole-vishkin -host dcycle:1000 -seed 3 -shards 2 -faults lossy:p=0.05",
			"sharded scale mode: cole-vishkin on dcycle:1000 (n=1000, P=2) under faults lossy:p=0.05\n" +
				"rounds: 12   |MIS| = 463   crashed: 0   dropped: 1098   violations: 29   uncovered: 0   wall:\n" +
				"shards: 2   cross-shard arcs: 4   exchanged words: 44"},
		{"-algo cole-vishkin -host dcycle:1000 -seed 3 -shards 2 -faults crash:f=40,by=8",
			"sharded scale mode: cole-vishkin on dcycle:1000 (n=1000, P=2) under faults crash:f=40,by=8\n" +
				"rounds: 12   |MIS| = 442   crashed: 40   dropped: 0   violations: 0   uncovered: 0   wall:\n" +
				"shards: 2   cross-shard arcs: 4   exchanged words: 44"},
		{"-algo cole-vishkin -host dcycle:16 -shards 32",
			"sharded scale mode: cole-vishkin on dcycle:16 (n=16, P=16)\n" +
				"rounds: 10   |MIS| = 6   |MIS|/n = 0.3750   feasible: yes   wall:\n" +
				"shards: 16   cross-shard arcs: 32   exchanged words: 288"},
		{"-algo matching -host torus:30x30 -seed 3",
			"scale mode: matching on torus:30x30 (n=900, m=1800)\n" +
				"rounds: 2   |M| = 108   |M|/n = 0.1200   feasible: yes   wall:"},
		{"-algo matching -host torus:30x30 -seed 3 -faults lossy:p=0.05",
			"scale mode: matching on torus:30x30 (n=900, m=1800) under faults lossy:p=0.05\n" +
				"rounds: 2   |M| = 108   crashed: 0   dropped: 53   conflicts: 0   wall:"},
		{"-algo matching -host torus:30x30 -seed 3 -faults crash:f=40,by=2",
			"scale mode: matching on torus:30x30 (n=900, m=1800) under faults crash:f=40,by=2\n" +
				"rounds: 2   |M| = 99   crashed: 40   dropped: 0   conflicts: 0   wall:"},
		{"-algo matching -host torus:30x30 -seed 3 -shards 2",
			"sharded scale mode: matching on torus:30x30 (n=900, P=2)\n" +
				"rounds: 2   |M| = 108   |M|/n = 0.1200   conflicts: 0   wall:\n" +
				"shards: 2   cross-shard arcs: 120   exchanged words: 21"},
		{"-algo matching -host torus:30x30 -seed 3 -shards 2 -faults lossy:p=0.05",
			"sharded scale mode: matching on torus:30x30 (n=900, P=2) under faults lossy:p=0.05\n" +
				"rounds: 2   |M| = 108   crashed: 0   dropped: 54   conflicts: 0   wall:\n" +
				"shards: 2   cross-shard arcs: 120   exchanged words: 21"},
		{"-algo matching -host torus:30x30 -seed 3 -shards 2 -faults crash:f=40,by=2",
			"sharded scale mode: matching on torus:30x30 (n=900, P=2) under faults crash:f=40,by=2\n" +
				"rounds: 2   |M| = 99   crashed: 40   dropped: 0   conflicts: 0   wall:\n" +
				"shards: 2   cross-shard arcs: 120   exchanged words: 21"},
		{"-algo flood -host cycle:512 -rounds 100 -seed 3",
			"scale mode: flood on cycle:512 (n=512, m=512)\n" +
				"rounds: 101   leader: 4091   converged@: 201   wall:"},
		{"-algo flood -host cycle:512 -rounds 100 -seed 3 -faults lossy:p=0.05",
			"scale mode: flood on cycle:512 (n=512, m=512) under faults lossy:p=0.05\n" +
				"rounds: 101   leader: 4091   converged@: 190   crashed: 0   dropped: 5153   wall:"},
		{"-algo flood -host cycle:512 -rounds 100 -seed 3 -faults crash:f=40,by=8",
			"scale mode: flood on cycle:512 (n=512, m=512) under faults crash:f=40,by=8\n" +
				"rounds: 101   leader: 4091   converged@: 20   crashed: 40   dropped: 0   wall:"},
	} {
		out, err := exec.Command(binPath, strings.Fields(tc.args)...).Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.args, err, out)
		}
		if got := stripWall(string(out)); got != tc.want {
			t.Errorf("%s:\n got  %q\n want %q", tc.args, got, tc.want)
		}
	}
}

// wallTime matches the wall-clock suffix of a scale-mode result line.
var wallTime = regexp.MustCompile(`wall: \S+`)

// stripWall trims stdout and blanks its wall times, leaving the bytes
// that are a pure function of the invocation.
func stripWall(out string) string {
	return wallTime.ReplaceAllString(strings.TrimSpace(out), "wall:")
}

// frontEndAnswer is what every front end reports for one engine run:
// the round count, the solution size and the fault counters.
type frontEndAnswer struct {
	Rounds, Size                     int
	Crashed, Dropped                 int64
	Violations, Uncovered, Conflicts int
}

// resultField matches one "name: value" or "|X| = value" pair of a
// scale-mode result line.
var resultField = regexp.MustCompile(`(rounds|\|MIS\||\|M\||view types|converged@|crashed|dropped|violations|uncovered|conflicts):? =? ?(\d+)`)

// localsimAnswer parses the result line of a scale-mode run.
func localsimAnswer(t *testing.T, out string) frontEndAnswer {
	t.Helper()
	var a frontEndAnswer
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, m := range resultField.FindAllStringSubmatch(lines[1], -1) {
		var v int
		fmt.Sscan(m[2], &v)
		switch m[1] {
		case "rounds":
			a.Rounds = v
		case "|MIS|", "|M|", "view types", "converged@":
			a.Size = v
		case "crashed":
			a.Crashed = int64(v)
		case "dropped":
			a.Dropped = int64(v)
		case "violations":
			a.Violations = v
		case "uncovered":
			a.Uncovered = v
		case "conflicts":
			a.Conflicts = v
		}
	}
	return a
}

// jsonAnswer decodes the shared fields of a /v1/run body or a run job
// result.
func jsonAnswer(t *testing.T, body []byte) frontEndAnswer {
	t.Helper()
	var r struct {
		Rounds, Size int
		Faults       struct {
			Crashed                          int64
			Dropped                          int64
			Violations, Uncovered, Conflicts int
		}
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("%v: %s", err, body)
	}
	f := r.Faults
	return frontEndAnswer{r.Rounds, r.Size, f.Crashed, f.Dropped, f.Violations, f.Uncovered, f.Conflicts}
}

// The CLI, the HTTP service and the job subsystem give one answer: each
// (workload, host, seed, faults) case runs through the localsim
// binary, the /v1/run handler and a job manager, and all three must
// report the same rounds, size and fault counters.
func TestFrontEndsAgree(t *testing.T) {
	srv := serve.New(serve.Config{})
	jobs, err := job.Open(job.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer jobs.Close()
	for _, tc := range []struct {
		algo, host string
		seed       int64
		faults     string
		want       frontEndAnswer
	}{
		{"cole-vishkin", "dcycle:1000", 3, "", frontEndAnswer{Rounds: 12, Size: 437}},
		{"cole-vishkin", "dcycle:1000", 3, "lossy:p=0.05", frontEndAnswer{Rounds: 12, Size: 461, Dropped: 1098, Violations: 33}},
		{"cole-vishkin", "dcycle:1000", 3, "crash:f=40,by=8", frontEndAnswer{Rounds: 12, Size: 423, Crashed: 40}},
		{"matching", "torus:30x30", 3, "", frontEndAnswer{Rounds: 2, Size: 108}},
		{"matching", "torus:30x30", 3, "lossy:p=0.05", frontEndAnswer{Rounds: 2, Size: 108, Dropped: 53}},
		{"matching", "torus:30x30", 3, "crash:f=40,by=2", frontEndAnswer{Rounds: 2, Size: 99, Crashed: 40}},
		{"gather", "torus:20x20", 4, "", frontEndAnswer{Rounds: 3, Size: 49}},
		{"gather", "torus:20x20", 4, "lossy:p=0.1", frontEndAnswer{Rounds: 3, Size: 263, Dropped: 330}},
		{"flood", "cycle:512", 3, "", frontEndAnswer{Rounds: 513, Size: 512}},
		{"flood", "cycle:512", 3, "lossy:p=0.05", frontEndAnswer{Rounds: 513, Size: 512, Dropped: 26237}},
		{"flood", "cycle:512", 3, "crash:f=40,by=8", frontEndAnswer{Rounds: 513, Size: 20, Crashed: 40}},
	} {
		name := tc.algo + "/" + tc.host + "/" + tc.faults
		args := []string{"-algo", tc.algo, "-host", tc.host, "-seed", fmt.Sprint(tc.seed)}
		target := fmt.Sprintf("/v1/run?algo=%s&host=%s&seed=%d", tc.algo, tc.host, tc.seed)
		if tc.faults != "" {
			args = append(args, "-faults", tc.faults)
			target += "&faults=" + tc.faults
		}
		out, err := exec.Command(binPath, args...).Output()
		if err != nil {
			t.Fatalf("%s: localsim: %v\n%s", name, err, out)
		}
		cli := localsimAnswer(t, string(out))

		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest("GET", target, nil))
		if rr.Code != 200 {
			t.Fatalf("%s: /v1/run: %d %s", name, rr.Code, rr.Body.String())
		}
		viaHTTP := jsonAnswer(t, rr.Body.Bytes())

		st, err := jobs.Submit(job.Spec{Kind: "run", Algo: tc.algo, Host: tc.host, Seed: tc.seed, Faults: tc.faults})
		if err != nil {
			t.Fatalf("%s: submit: %v", name, err)
		}
		body := jobResult(t, jobs, st.ID)
		viaJob := jsonAnswer(t, body)

		if cli != tc.want || viaHTTP != tc.want || viaJob != tc.want {
			t.Errorf("%s:\n localsim %+v\n /v1/run  %+v\n job      %+v\n want     %+v", name, cli, viaHTTP, viaJob, tc.want)
		}
	}
}

// jobResult waits for a job to finish and returns its result body.
func jobResult(t *testing.T, m *job.Manager, id string) []byte {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		st, _ := m.Get(id)
		switch st.State {
		case "done":
			body, err := m.Result(id)
			if err != nil {
				t.Fatal(err)
			}
			return body
		case "failed":
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}
