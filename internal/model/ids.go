package model

import "math/rand"

// IDFunc assigns the global id NodeInfo.ID carries for node v; nil
// runs anonymously (ID = -1). See SeededIDs for a giant-host id
// assignment that needs no materialised table.
type IDFunc func(v int64) int

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

// SeededIDs returns an IDFunc computing a seeded permutation of
// [0, n) without materialising a table: a 4-round Feistel permutation
// over the smallest even-bit-width domain covering n, cycle-walked
// back into range (every walk terminates because the start is already
// in range, so its cycle re-enters [0, n)). Ids are distinct and the
// maximum id is n-1 — exactly what Cole–Vishkin's id-space check
// wants at 10^8 nodes.
func SeededIDs(n int64, seed int64) IDFunc {
	bits := 2
	for int64(1)<<bits < n {
		bits += 2
	}
	half := uint(bits / 2)
	mask := uint64(1)<<half - 1
	perm := func(x uint64) uint64 {
		l, r := x>>half, x&mask
		for i := 0; i < 4; i++ {
			l, r = r, l^(splitmixModel(r+uint64(seed)+uint64(i)*0x9e3779b97f4a7c15)&mask)
		}
		return l<<half | r
	}
	return func(v int64) int {
		x := uint64(v)
		for {
			x = perm(x)
			if int64(x) < n {
				return int(x)
			}
		}
	}
}

// splitmixModel is the SplitMix64 finaliser (the fault scheduler's
// mixer, duplicated here to keep faults.go's hashes untouched).
func splitmixModel(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
