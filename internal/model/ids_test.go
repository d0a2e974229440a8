package model

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPermIDsMatchesPerm pins PermIDs to rng.Perm(m)[:n]: the same
// ids and the same rng state afterwards, checked by the next draw.
func TestPermIDsMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000, 4096} {
		for _, m := range []int{8 * n, 10 * n} {
			for seed := int64(1); seed <= 4; seed++ {
				r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got, want := PermIDs(r1, n, m), r2.Perm(m)[:n]
				if !slices.Equal(got, want) {
					t.Errorf("n=%d m=%d seed=%d: PermIDs differs from rng.Perm(m)[:n]", n, m, seed)
				}
				if a, b := r1.Int63(), r2.Int63(); a != b {
					t.Errorf("n=%d m=%d seed=%d: next draw %d after PermIDs, %d after Perm", n, m, seed, a, b)
				}
			}
		}
	}
}
