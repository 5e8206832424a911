package dspaddr

// One benchmark per experiment artifact (the experiment index in
// cmd/rcabench's package doc), plus micro-benchmarks of the allocator
// phases. Run with
//
//	go test -bench=. -benchmem
//
// The Benchmark*/shape checks are deliberately light; the full-size
// sweeps live behind `rcabench`.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dspaddr/internal/codegen"
	"dspaddr/internal/core"
	"dspaddr/internal/distgraph"
	"dspaddr/internal/dspsim"
	"dspaddr/internal/engine"
	"dspaddr/internal/experiments"
	"dspaddr/internal/indexreg"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/obs"
	"dspaddr/internal/offsetassign"
	"dspaddr/internal/pathcover"
	"dspaddr/internal/workload"
)

// BenchmarkFig1GraphModel regenerates Figure 1 (E1): distance graph
// construction plus the minimal path cover of the example loop.
func BenchmarkFig1GraphModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig1()
		if err != nil {
			b.Fatal(err)
		}
		if r.KTilde != 2 {
			b.Fatalf("K~ = %d", r.KTilde)
		}
	}
}

// BenchmarkE2RandomSweep regenerates the Results ¶1 statistical
// analysis (E2) at a benchmark-friendly trial count.
func BenchmarkE2RandomSweep(b *testing.B) {
	p := experiments.DefaultE2Params()
	p.Trials = 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunE2(p)
		if err != nil {
			b.Fatal(err)
		}
		if r.GrandReduction < 15 {
			b.Fatalf("reduction collapsed: %.1f%%", r.GrandReduction)
		}
	}
}

// BenchmarkE2Cell benchmarks single sweep cells across the paper's
// parameter axes.
func BenchmarkE2Cell(b *testing.B) {
	for _, n := range []int{10, 30, 50} {
		for _, k := range []int{2, 4} {
			b.Run(fmt.Sprintf("N=%d/M=1/K=%d", n, k), func(b *testing.B) {
				p := experiments.E2Params{
					Ns: []int{n}, Ms: []int{1}, Ks: []int{k},
					Trials: 5, Seed: 1, OffsetRange: 8,
				}
				for i := 0; i < b.N; i++ {
					if _, err := experiments.RunE2(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE3Kernels regenerates the Results ¶2 kernel study (E3),
// one sub-benchmark per library kernel: allocate, generate optimized
// and naive code, verify both on the simulator and execute them.
func BenchmarkE3Kernels(b *testing.B) {
	for _, name := range workload.KernelNames() {
		b.Run(name, func(b *testing.B) {
			p := experiments.DefaultE3Params()
			p.Kernels = []string{name}
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunE3(p)
				if err != nil {
					b.Fatal(err)
				}
				if r.Rows[0].OptCycles >= r.Rows[0].NaiveCycles {
					b.Fatal("optimized code not faster")
				}
			}
		})
	}
}

// BenchmarkA1Bounds regenerates the phase-1 bound-quality ablation.
func BenchmarkA1Bounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA1([]int{8, 12}, []int{1}, 10, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2MergeStrategies regenerates the merge-strategy ablation.
func BenchmarkA2MergeStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA2([]int{10, 16}, 2, 1, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3WrapObjective regenerates the inter-iteration modelling
// ablation.
func BenchmarkA3WrapObjective(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA3(4, 1, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4SOA regenerates the scalar offset-assignment ablation.
func BenchmarkA4SOA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA4([]int{12, 24}, 6, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the allocator phases ---

func randomPatternB(rng *rand.Rand, n int) model.Pattern {
	return workload.BenchPattern(rng, n)
}

// BenchmarkPhase1MatchingCover measures the polynomial minimum path
// cover (intra-iteration objective).
func BenchmarkPhase1MatchingCover(b *testing.B) {
	for _, n := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pat := randomPatternB(rand.New(rand.NewSource(int64(n))), n)
			dg, err := distgraph.Build(pat, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pathcover.MinCoverDAG(dg)
			}
		})
	}
}

// BenchmarkPhase1BranchAndBound measures the wrap-aware exact search.
func BenchmarkPhase1BranchAndBound(b *testing.B) {
	for _, n := range []int{10, 20, 30} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pat := randomPatternB(rand.New(rand.NewSource(int64(n))), n)
			dg, err := distgraph.Build(pat, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pathcover.MinCover(dg, true, nil)
			}
		})
	}
}

// BenchmarkPhase2GreedyMerge measures the paper's merge heuristic.
func BenchmarkPhase2GreedyMerge(b *testing.B) {
	for _, n := range []int{20, 50} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pat := randomPatternB(rand.New(rand.NewSource(int64(n))), n)
			dg, err := distgraph.Build(pat, 1)
			if err != nil {
				b.Fatal(err)
			}
			cover := pathcover.MinCover(dg, false, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := merge.Reduce(merge.Greedy{}, cover.Paths, pat, 1, false, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhase2Exact sets the exact phase 2 ("optimal") beside the
// paper's greedy merge on the served mix's intra-iteration jobs
// (servedMixJobs; a job whose cover already fits K skips phase 2, as
// in core). Each iteration reduces every such job once; cost/batch is
// their summed unit-cost computations. Ungated: it is the row a
// proposal to change the default strategy starts from.
func BenchmarkPhase2Exact(b *testing.B) {
	type job struct {
		pat   model.Pattern
		m, k  int
		paths []model.Path
	}
	var jobs []job
	for _, r := range servedMixJobs(b) {
		if r.InterIteration {
			continue
		}
		dg, err := distgraph.Build(r.Pattern, r.AGU.ModifyRange)
		if err != nil {
			b.Fatal(err)
		}
		if cover := pathcover.MinCover(dg, false, nil); cover.K() > r.AGU.Registers {
			jobs = append(jobs, job{r.Pattern, r.AGU.ModifyRange, r.AGU.Registers, cover.Paths})
		}
	}
	for _, s := range []merge.Strategy{merge.Optimal{}, merge.Greedy{}} {
		b.Run(s.Name(), func(b *testing.B) {
			var sc merge.Scratch
			cost := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cost = 0
				for _, j := range jobs {
					a, err := merge.ReduceContext(context.Background(), s, j.paths, j.pat, j.m, false, j.k, &sc)
					if err != nil {
						b.Fatal(err)
					}
					cost += a.Cost(j.pat, j.m, false)
				}
			}
			b.ReportMetric(float64(cost), "cost/batch")
		})
	}
}

// BenchmarkGreedyMergeLarge exercises the incremental greedy merge on
// a wide phase-2 workload: ~48 singleton paths (offsets spread far
// beyond the modify range) merged down to 4 registers, 44 rounds. The
// in-package benchmark BenchmarkGreedyIncrementalVsReference
// (internal/merge) compares this exact workload against the retained
// reference implementation.
func BenchmarkGreedyMergeLarge(b *testing.B) {
	pat := workload.WideMergePattern()
	dg, err := distgraph.Build(pat, 1)
	if err != nil {
		b.Fatal(err)
	}
	cover := pathcover.MinCover(dg, false, nil)
	if cover.K() < 40 {
		b.Fatalf("expected a large cover, got %d paths", cover.K())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := merge.Reduce(merge.Greedy{}, cover.Paths, pat, 1, false, 4)
		if err != nil {
			b.Fatal(err)
		}
		if a.Registers() != 4 {
			b.Fatalf("left %d registers", a.Registers())
		}
	}
}

// BenchmarkAllocateEndToEnd measures the whole allocator.
func BenchmarkAllocateEndToEnd(b *testing.B) {
	pat := randomPatternB(rand.New(rand.NewSource(7)), 30)
	cfg := core.Config{AGU: model.AGUSpec{Registers: 4, ModifyRange: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Allocate(pat, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures simulated instructions per
// second on the FIR kernel.
func BenchmarkSimulatorThroughput(b *testing.B) {
	k, err := workload.KernelByName("fir8")
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := core.AllocateLoop(k.Loop, core.Config{
		AGU: model.AGUSpec{Registers: 3, ModifyRange: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	bases, words := codegen.AutoBases(k.Loop)
	prog, err := codegen.GenerateOptimized(alloc, bases, dspsim.ADD)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(words); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSOAHeuristics measures the scalar offset-assignment
// heuristics.
func BenchmarkSOAHeuristics(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	letters := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	seq := make([]string, 200)
	for i := range seq {
		seq[i] = letters[rng.Intn(len(letters))]
	}
	b.Run("liao", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			offsetassign.LiaoSOA(seq)
		}
	})
	b.Run("tie-break", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			offsetassign.TieBreakSOA(seq)
		}
	})
	b.Run("goa-k4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := offsetassign.GOA(seq, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA5IndexRegisters regenerates the index-register extension
// ablation.
func BenchmarkA5IndexRegisters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA5([]int{10, 20}, 2, 1, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexedOptimize measures the alternating allocate/re-pick
// loop of the indexed allocator.
func BenchmarkIndexedOptimize(b *testing.B) {
	for _, n := range []int{10, 30} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			pat := randomPatternB(rand.New(rand.NewSource(int64(n))), n)
			spec := model.AGUSpec{Registers: 2, ModifyRange: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := indexreg.Optimize(pat, spec, indexreg.Options{IndexRegisters: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- batch engine benchmarks ---
//
// BenchmarkEngineBatch, BenchmarkEngineParallelWarm,
// BenchmarkEngineBatchTraced and BenchmarkEngineBatchServedMix are the
// CI micro-gate: rcabench -exp
// bench runs them from the parent's and the change's test binaries in
// interleaved rounds and compares the medians (see cmd/rcabench).

// engineBatchJobs is the gated benchmarks' shared workload: 64
// distinct N=20 patterns drawn from seed 11.
func engineBatchJobs() []engine.Request {
	rng := rand.New(rand.NewSource(11))
	jobs := make([]engine.Request, 64)
	for i := range jobs {
		jobs[i] = engine.Request{
			Pattern: randomPatternB(rng, 20),
			AGU:     model.AGUSpec{Registers: 2, ModifyRange: 1},
		}
	}
	return jobs
}

// BenchmarkEngineBatch measures end-to-end batch throughput on the
// worker pool: each iteration submits a 64-job batch of distinct
// patterns (every job misses the cache).
func BenchmarkEngineBatch(b *testing.B) {
	jobs := engineBatchJobs()
	e := engine.New(engine.Options{Workers: 8, CacheSize: -1})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range e.RunBatch(context.Background(), jobs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkEngineBatchTraced is BenchmarkEngineBatch with full
// observability on: every iteration runs under a request trace, so
// phase spans record throughout the engine and solver. The gate holds
// it within 10% of the same binary's untraced batch.
func BenchmarkEngineBatchTraced(b *testing.B) {
	jobs := engineBatchJobs()
	e := engine.New(engine.Options{Workers: 8, CacheSize: -1})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("bench")
		ctx := obs.NewContext(context.Background(), tr)
		for _, res := range e.RunBatch(ctx, jobs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		tr.Release()
	}
}

// servedMixJobs is one fixed cold batch of the served mix (perfbench's
// cold-solve op): 12 intra-iteration jobs of N 32–64 and 4 wrap-aware
// jobs of N 8–16, K 2–4, M 1–2, offsets drawn by internal/workload
// from seed 21 with a random distribution and offset range 4–11.
func servedMixJobs(b *testing.B) []engine.Request {
	rng := rand.New(rand.NewSource(21))
	jobs := make([]engine.Request, 16)
	for i := range jobs {
		wrap := i >= 12
		n := 32 + rng.Intn(33)
		if wrap {
			n = 8 + rng.Intn(9)
		}
		pat, err := workload.RandomPattern(rng, workload.RandomParams{
			N: n, OffsetRange: 4 + rng.Intn(8), Dist: workload.Distribution(rng.Intn(3)),
		})
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = engine.Request{
			Pattern:        pat,
			AGU:            model.AGUSpec{Registers: 2 + rng.Intn(3), ModifyRange: 1 + rng.Intn(2)},
			InterIteration: wrap,
		}
	}
	return jobs
}

// BenchmarkEngineBatchServedMix measures the served cold mix end to
// end on the worker pool: each iteration solves the servedMixJobs
// batch with the cache off, so phase 1 (distance graph and cover)
// carries the weight it carries in production, unlike the merge-bound
// N=20 batch above.
func BenchmarkEngineBatchServedMix(b *testing.B) {
	jobs := servedMixJobs(b)
	e := engine.New(engine.Options{Workers: 8, CacheSize: -1})
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range e.RunBatch(context.Background(), jobs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkEngineParallelWarm measures concurrent hit-dominated
// traffic against the sharded cache: 8 goroutines each push the same
// 64-pattern batch through the pool per iteration, everything after
// the warmup answered from cache. This is the shape that serialized on
// the old single cache mutex.
func BenchmarkEngineParallelWarm(b *testing.B) {
	jobs := engineBatchJobs()
	e := engine.New(engine.Options{Workers: 8})
	defer e.Close()
	for _, res := range e.RunBatch(context.Background(), jobs) {
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, res := range e.RunBatch(context.Background(), jobs) {
					if res.Err != nil {
						b.Error(res.Err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// BenchmarkEngineCacheHit measures the canonical-pattern cache fast
// path under parallel load: every submission after the first is a hit.
func BenchmarkEngineCacheHit(b *testing.B) {
	e := engine.New(engine.Options{Workers: 8})
	defer e.Close()
	req := engine.Request{
		Pattern: model.PaperExample(),
		AGU:     model.AGUSpec{Registers: 1, ModifyRange: 1},
	}
	if res := e.Run(context.Background(), req); res.Err != nil {
		b.Fatal(res.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res := e.Run(context.Background(), req)
			if res.Err != nil {
				b.Error(res.Err)
				return
			}
			if !res.CacheHit {
				b.Error("expected a cache hit")
				return
			}
		}
	})
}

// BenchmarkEngineCacheMissVsHit reports the solve-vs-lookup gap on one
// mid-size pattern: sub-benchmark "miss" disables the cache,
// sub-benchmark "hit" serves from it.
func BenchmarkEngineCacheMissVsHit(b *testing.B) {
	pat := randomPatternB(rand.New(rand.NewSource(5)), 30)
	req := engine.Request{Pattern: pat, AGU: model.AGUSpec{Registers: 2, ModifyRange: 1}}
	b.Run("miss", func(b *testing.B) {
		e := engine.New(engine.Options{Workers: 2, CacheSize: -1})
		defer e.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := e.Run(context.Background(), req); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		e := engine.New(engine.Options{Workers: 2})
		defer e.Close()
		e.Run(context.Background(), req)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := e.Run(context.Background(), req)
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if !res.CacheHit {
				b.Fatal("expected a cache hit")
			}
		}
	})
}

// BenchmarkA6ModuloAddressing regenerates the circular-buffer
// extension ablation: build, verify and execute both FIR
// implementations.
func BenchmarkA6ModuloAddressing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunA6([]int{4, 16}, 32, 1); err != nil {
			b.Fatal(err)
		}
	}
}
