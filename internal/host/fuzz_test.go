package host

import (
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// fuzzNodeBudget caps the rough size of a host the fuzzer may request.
const fuzzNodeBudget = 1 << 12

// fuzzTooBig reports whether desc could ask for a large host: some
// number in it exceeds 4096, or the product of its size numbers (all
// but seeds) exceeds fuzzNodeBudget. A hypercube dimension k counts as
// 2^k and a Margulis side n as n^2, the node counts they stand for.
func fuzzTooBig(desc string) bool {
	size := 1
	for i := 0; i < len(desc); {
		if !unicode.IsDigit(rune(desc[i])) {
			i++
			continue
		}
		j := i
		for j < len(desc) && unicode.IsDigit(rune(desc[j])) {
			j++
		}
		x, err := strconv.Atoi(desc[i:j])
		if err != nil || x > 4096 {
			return true
		}
		before := desc[:i]
		switch {
		case strings.HasSuffix(before, "seed="):
			x = 1
		case strings.HasSuffix(before, "hypercube:") || strings.HasSuffix(before, "hypercube:k="):
			x = 1 << min(x, 30)
		case strings.HasSuffix(before, "margulis-expander:") || strings.HasSuffix(before, "margulis-expander:n="):
			x *= x
		}
		size *= max(x, 1)
		if size > fuzzNodeBudget {
			return true
		}
		i = j
	}
	return false
}

// restartCapDesc asks for K_13 from the pairing model, which all but
// never draws a simple 12-regular pairing: the generator's restart cap
// must surface as an error, not a panic.
const restartCapDesc = "random-regular:d=12,n=13,seed=1"

func TestParseRandomRegularRestartCap(t *testing.T) {
	if _, err := Parse(restartCapDesc); err == nil || !strings.Contains(err.Error(), "too many restarts") {
		t.Fatalf("Parse(%q) err = %v, want the restart-cap error", restartCapDesc, err)
	}
}

// FuzzParse feeds arbitrary descriptors to the decoder that /v1/run
// and /v1/measure expose: Parse must return an error rather than
// panic, and a descriptor it accepts must be a fixpoint — Parse ->
// Desc -> Parse yields the same Desc and the same host.
func FuzzParse(f *testing.F) {
	for _, descs := range familySamples {
		for _, desc := range descs {
			f.Add(desc)
		}
	}
	f.Add(restartCapDesc)
	f.Fuzz(func(t *testing.T, desc string) {
		if fuzzTooBig(desc) {
			t.Skip("descriptor may request a large host")
		}
		h1, err := Parse(desc)
		if err != nil {
			return
		}
		if h1.Desc != desc {
			t.Fatalf("Parse(%q) stamped Desc=%q", desc, h1.Desc)
		}
		h2, err := Parse(h1.Desc)
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", h1.Desc, err)
		}
		if h2.Desc != h1.Desc {
			t.Fatalf("Desc drifted on re-parse: %q -> %q", h1.Desc, h2.Desc)
		}
		if err := sameHost(h1, h2); err != nil {
			t.Fatalf("%q re-parsed to a different host: %v", desc, err)
		}
	})
}
