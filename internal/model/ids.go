package model

import "math/rand"

// PermIDs returns exactly rng.Perm(m)[:n] and leaves rng in the same
// state as that call, holding n ints where Perm holds m. It is the
// flat plane's id draw: n distinct identifiers from [0, m).
//
// Perm is an inside-out shuffle: step i draws j = rng.Intn(i+1), moves
// p[j] to p[i] and writes i at p[j]. Positions i >= n are never read
// back into the prefix, so for those steps only the draw and a write
// of i into the prefix (when j < n) matter.
func PermIDs(rng *rand.Rand, n, m int) []int {
	if n > m {
		panic("model: PermIDs needs n <= m")
	}
	p := make([]int, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	for i := n; i < m; i++ {
		if j := rng.Intn(i + 1); j < n {
			p[j] = i
		}
	}
	return p
}
