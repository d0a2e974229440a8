package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binPath is the experiments binary built once by TestMain.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "experiments-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(dir, "experiments")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building experiments: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Usage mistakes — unknown -host descriptor, out-of-range -rmax,
// unknown -only id — exit status 2 with the relevant listing.
func TestUsageErrorsExitTwoWithListing(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"bad host", []string{"-host", "nosuch:3"}, "registered host families:"},
		{"bad host params", []string{"-host", "torus:6x6,bogus=1"}, "unused arguments"},
		{"rmax too big", []string{"-rmax", "99"}, "valid radii: 1..8"},
		{"rmax zero", []string{"-rmax", "0"}, "valid radii: 1..8"},
		{"bad only", []string{"-only", "E999"}, "experiments:"},
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

// TestFullSuiteMatchesGolden pins the whole E1–E17 output byte for
// byte, at the default worker-pool width and at -p 1, so a change that
// moves any table cell fails here instead of in prose. When a change
// moves the output on purpose, regenerate the golden with
//
//	go run ./cmd/experiments > cmd/experiments/testdata/all.golden
//
// and review the diff.
func TestFullSuiteMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{nil, {"-p", "1"}} {
		got, err := exec.Command(binPath, args...).Output()
		if err != nil {
			t.Fatalf("experiments %v: %v", args, err)
		}
		if string(got) != string(want) {
			t.Errorf("experiments %v: output differs from testdata/all.golden\n%s", args, firstDiff(string(want), string(got)))
		}
	}
}

// firstDiff describes the first line on which got departs from want.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n want %q\n got  %q", i+1, w, g)
		}
	}
	return "(no differing line)"
}
