// Deterministic benchmark workloads shared by the top-level
// micro-benchmarks (which CI's regression gate runs) and the
// in-package merge/pathcover benchmarks. Keeping the generators here
// guarantees both measure byte-identical inputs — the README table
// and the reference-vs-incremental comparisons stay comparable by
// construction.

package workload

import (
	"math/rand"

	"dspaddr/internal/model"
)

// BenchPattern draws the micro-benchmark pattern shape: n offsets
// uniform in [-8, +8], stride 1. Callers pass a seeded rng so
// multi-pattern benchmarks (e.g. a 64-job batch) can draw a
// deterministic sequence.
func BenchPattern(rng *rand.Rand, n int) model.Pattern {
	offs := make([]int, n)
	for i := range offs {
		offs[i] = rng.Intn(17) - 8
	}
	return model.Pattern{Array: "A", Stride: 1, Offsets: offs}
}

// WideMergePattern is the phase-2 stress workload: 48 offsets spread
// far beyond modify range 1, so the zero-cost cover degenerates to
// ~48 singleton paths and a merge down to few registers does maximal
// pairwise work (BenchmarkGreedyMergeLarge and the merge/greedy/R=48
// baseline entry).
func WideMergePattern() model.Pattern {
	rng := rand.New(rand.NewSource(48))
	offs := make([]int, 48)
	for i := range offs {
		offs[i] = rng.Intn(2001) - 1000
	}
	return model.Pattern{Array: "A", Stride: 1, Offsets: offs}
}
