package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// The gather scale workload's result lines are pinned byte for byte
// (wall time stripped): clean, lossy and crash-stop runs on tori.
func TestGatherResultLinesPinned(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-algo", "gather", "-host", "torus:200x200", "-rmax", "2"},
			"rounds: 3   radius-2 view types: 49   wall:"},
		{[]string{"-algo", "gather", "-host", "torus:30x30", "-rmax", "3", "-faults", "lossy:p=0.05"},
			"rounds: 4   radius-3 view types: 720   crashed: 0   dropped: 538   wall:"},
		{[]string{"-algo", "gather", "-host", "torus:30x30", "-rmax", "2", "-faults", "crash:f=40,by=2"},
			"rounds: 3   radius-2 view types: 133   crashed: 40   dropped: 0   wall:"},
	} {
		out, err := exec.Command(binPath, tc.args...).Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		got, _, _ := strings.Cut(lines[len(lines)-1], "wall:")
		if got+"wall:" != tc.want {
			t.Errorf("%v:\n got  %q\n want %q", tc.args, got+"wall:", tc.want)
		}
	}
}
