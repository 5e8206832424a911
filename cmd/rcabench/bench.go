// Machine-readable performance baseline (-exp bench): measures the
// allocator hot paths with testing.Benchmark and emits a JSON document
// (BENCH_9.json at the repo root is the committed baseline CI gates
// against). With -bench-against the run fails when any of these holds:
//   - one of the three gated rows — the cold batch, the warm parallel
//     engine path or the traced batch — is more than 25% slower than
//     the committed file (absolute, so it measures the machine too);
//   - the traced batch costs more than 10% over the same run's
//     untraced batch;
//   - the untraced batch gains more than allocSlack allocs/op;
//   - the WAL'd submit path adds more than 15% p99 over the same run's
//     in-memory submit path;
//   - the gateway hop adds more than 1ms p99 over a direct node hit.
//
// The bench mode is deliberately not part of "-exp all": it spends
// several seconds of wall-clock measurement, which the paper tables do
// not need.

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/engine"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/obs"
	"dspaddr/internal/pathcover"
	"dspaddr/internal/workload"
)

// benchSchema versions the baseline file format.
const benchSchema = 1

// batchBenchKey and parallelBenchKey are the entries the regression
// gate checks: the end-to-end cold-cache batch throughput of the
// serving engine, and the warm hit-dominated parallel path across the
// sharded cache. batchObsBenchKey is the same cold batch run under a
// per-request trace with the solve histogram attached — the
// instrumented request path.
const (
	batchBenchKey    = "engine/batch/64xN20"
	parallelBenchKey = "engine/parallel/8x64xN20"
	batchObsBenchKey = "engine/batch-obs/64xN20"
)

// gatedBenchKeys lists every scenario -bench-against fails on.
var gatedBenchKeys = []string{batchBenchKey, parallelBenchKey, batchObsBenchKey}

// regressionTolerance is how much slower (fractionally) a gated
// benchmark may get before -bench-against fails the run.
const regressionTolerance = 0.25

// obsOverheadTolerance bounds the instrumented batch against the
// SAME run's untraced batch (a within-run ratio, so machine speed
// cancels out): tracing every phase of 64 jobs may cost at most this
// fraction extra.
const obsOverheadTolerance = 0.10

// allocSlack is how many allocs/op the untraced batch may drift above
// the committed baseline before the gate fails — the "observability
// hooks disabled = zero extra allocations" guarantee, with a little
// room for scheduler-dependent map growth.
const allocSlack = 8

// benchEntry is one benchmark's measured costs. P99NsPerOp is only
// populated by the hand-timed jobs/submit-* scenarios (bench_wal.go);
// testing.Benchmark reports means only. P99OverheadPct appears on the
// gated WAL scenario alone: the median paired-round p99 overhead
// against the no-WAL twin from the same run, which is the statistic
// the durability gate enforces.
type benchEntry struct {
	NsPerOp        float64 `json:"nsPerOp"`
	AllocsPerOp    int64   `json:"allocsPerOp"`
	BytesPerOp     int64   `json:"bytesPerOp"`
	P99NsPerOp     float64 `json:"p99NsPerOp,omitempty"`
	P99OverheadPct float64 `json:"p99OverheadPct,omitempty"`
	// P99HopDeltaNs appears on the gated gateway/forward scenario
	// alone: the median paired-round p99 delta (forwarded minus
	// direct, nanoseconds) the cluster-hop gate enforces
	// (bench_gateway.go).
	P99HopDeltaNs float64 `json:"p99HopDeltaNs,omitempty"`
}

// benchBaseline is the BENCH_*.json document.
type benchBaseline struct {
	Schema     int                   `json:"schema"`
	GoVersion  string                `json:"goVersion"`
	GOOS       string                `json:"goos"`
	GOARCH     string                `json:"goarch"`
	Benchmarks map[string]benchEntry `json:"benchmarks"`
}

// wideMergeInput builds the ~48-singleton-path phase-2 workload of
// BenchmarkGreedyMergeLarge (workload.WideMergePattern, shared with
// the in-package benchmarks so every surface measures the same
// input).
func wideMergeInput() ([]model.Path, model.Pattern, error) {
	pat := workload.WideMergePattern()
	dg, err := distgraph.Build(pat, 1)
	if err != nil {
		return nil, model.Pattern{}, err
	}
	return pathcover.MinCoverDAG(dg), pat, nil
}

// measureBaseline runs every baseline benchmark and collects the
// results. Each case takes ~1s of measurement (testing.Benchmark's
// default budget).
func measureBaseline() (benchBaseline, error) {
	base := benchBaseline{
		Schema:     benchSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: map[string]benchEntry{},
	}

	record := func(name string, r testing.BenchmarkResult) {
		base.Benchmarks[name] = benchEntry{
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}

	// Phase 1, intra-iteration objective: polynomial matching cover.
	dagPat := workload.BenchPattern(rand.New(rand.NewSource(50)), 50)
	dagGraph, err := distgraph.Build(dagPat, 1)
	if err != nil {
		return base, err
	}
	record("cover/dag/N=50", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pathcover.MinCoverDAG(dagGraph)
		}
	}))

	// Phase 1, wrap objective: branch-and-bound search.
	bbPat := workload.BenchPattern(rand.New(rand.NewSource(20)), 20)
	bbGraph, err := distgraph.Build(bbPat, 1)
	if err != nil {
		return base, err
	}
	record("cover/bb/N=20", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pathcover.MinCover(bbGraph, true, nil)
		}
	}))

	// Phase 2: incremental greedy merge of ~48 paths down to 4.
	mergePaths, mergePat, err := wideMergeInput()
	if err != nil {
		return base, err
	}
	record("merge/greedy/R=48", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := merge.Reduce(merge.Greedy{}, mergePaths, mergePat, 1, false, 4); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// End to end: a 64-job batch of distinct patterns through the
	// worker pool, cache disabled so every job solves.
	rng := rand.New(rand.NewSource(11))
	jobs := make([]engine.Request, 64)
	for i := range jobs {
		jobs[i] = engine.Request{
			Pattern: workload.BenchPattern(rng, 20),
			AGU:     model.AGUSpec{Registers: 2, ModifyRange: 1},
		}
	}
	eng := engine.New(engine.Options{Workers: 8, CacheSize: -1})
	defer eng.Close()
	record(batchBenchKey, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, res := range eng.RunBatch(context.Background(), jobs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	}))

	// The same cold batch with full observability on: every iteration
	// runs under a request trace (phase spans record throughout the
	// engine and solver). compareBaselines holds this within
	// obsOverheadTolerance of the untraced batch above.
	obsEng := engine.New(engine.Options{Workers: 8, CacheSize: -1})
	defer obsEng.Close()
	record(batchObsBenchKey, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("bench")
			ctx := obs.NewContext(context.Background(), tr)
			for _, res := range obsEng.RunBatch(ctx, jobs) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
			tr.Release()
		}
	}))

	// Hit path: one request served from the warm canonical cache —
	// key build, one shard-local lookup and the result rewrite.
	warm := engine.New(engine.Options{Workers: 8})
	defer warm.Close()
	if res := warm.Run(context.Background(), jobs[0]); res.Err != nil {
		return base, res.Err
	}
	record("engine/hit/N20", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := warm.Run(context.Background(), jobs[0])
			if res.Err != nil {
				b.Fatal(res.Err)
			}
			if !res.CacheHit {
				b.Fatal("expected a cache hit")
			}
		}
	}))

	// Parallel engine: 8 goroutines push the full 64-pattern batch
	// through the pool concurrently, hit-dominated after warmup. This
	// is the scenario that serialized on the old single cache mutex;
	// it is gated alongside the cold batch.
	par := engine.New(engine.Options{Workers: 8})
	defer par.Close()
	for _, res := range par.RunBatch(context.Background(), jobs) {
		if res.Err != nil {
			return base, res.Err
		}
	}
	record(parallelBenchKey, testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, res := range par.RunBatch(context.Background(), jobs) {
						if res.Err != nil {
							b.Error(res.Err)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}))

	// Async admission with and without the write-ahead log — the
	// durability tax on the submit path, gated at p99 (bench_wal.go).
	if err := measureSubmitScenarios(func(name string, e benchEntry) {
		base.Benchmarks[name] = e
	}); err != nil {
		return base, err
	}

	// The cluster gateway hop against a direct node hit — the fleet
	// tax on the request path, gated at an absolute p99 delta
	// (bench_gateway.go).
	if err := measureGatewayScenarios(func(name string, e benchEntry) {
		base.Benchmarks[name] = e
	}); err != nil {
		return base, err
	}

	return base, nil
}

// renderBaseline prints the baseline as an aligned text table.
func renderBaseline(out io.Writer, base benchBaseline) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "baseline (%s %s/%s)\n", base.GoVersion, base.GOOS, base.GOARCH)
	for _, name := range names {
		e := base.Benchmarks[name]
		fmt.Fprintf(out, "  %-26s %14.0f ns/op %8d allocs/op %10d B/op",
			name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		if e.P99NsPerOp > 0 {
			fmt.Fprintf(out, " %14.0f p99 ns/op", e.P99NsPerOp)
		}
		if e.P99OverheadPct != 0 {
			fmt.Fprintf(out, " %+6.1f%% p99 paired", e.P99OverheadPct)
		}
		if e.P99HopDeltaNs != 0 {
			fmt.Fprintf(out, " %+9.0f ns p99 hop", e.P99HopDeltaNs)
		}
		fmt.Fprintln(out)
	}
}

// loadBaseline reads a committed BENCH_*.json.
func loadBaseline(path string) (benchBaseline, error) {
	var base benchBaseline
	data, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(data, &base); err != nil {
		return base, fmt.Errorf("parse %s: %w", path, err)
	}
	if base.Schema != benchSchema {
		return base, fmt.Errorf("%s: schema %d, this binary speaks %d", path, base.Schema, benchSchema)
	}
	return base, nil
}

// compareBaselines reports per-benchmark deltas and fails when any
// gated benchmark regressed beyond the tolerance.
func compareBaselines(out io.Writer, fresh, committed benchBaseline) error {
	names := make([]string, 0, len(fresh.Benchmarks))
	for name := range fresh.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := fresh.Benchmarks[name]
		was, ok := committed.Benchmarks[name]
		if !ok || was.NsPerOp <= 0 {
			fmt.Fprintf(out, "  %-24s %14.0f ns/op (no committed baseline)\n", name, got.NsPerOp)
			continue
		}
		fmt.Fprintf(out, "  %-24s %14.0f ns/op vs %14.0f committed (%+.1f%%)\n",
			name, got.NsPerOp, was.NsPerOp, 100*(got.NsPerOp-was.NsPerOp)/was.NsPerOp)
	}
	for _, key := range gatedBenchKeys {
		got, ok := fresh.Benchmarks[key]
		was, wasOK := committed.Benchmarks[key]
		if !ok || !wasOK || was.NsPerOp <= 0 {
			return fmt.Errorf("baseline gate: %q missing from fresh or committed baseline", key)
		}
		if got.NsPerOp > was.NsPerOp*(1+regressionTolerance) {
			return fmt.Errorf("baseline gate: %s regressed %.1f%% (%.0f -> %.0f ns/op, tolerance %.0f%%)",
				key, 100*(got.NsPerOp-was.NsPerOp)/was.NsPerOp,
				was.NsPerOp, got.NsPerOp, 100*regressionTolerance)
		}
	}

	// Instrumented-path overhead: traced vs untraced batch within the
	// SAME fresh run, so the bound is machine-independent.
	plain, obsRun := fresh.Benchmarks[batchBenchKey], fresh.Benchmarks[batchObsBenchKey]
	if plain.NsPerOp > 0 && obsRun.NsPerOp > 0 {
		overhead := (obsRun.NsPerOp - plain.NsPerOp) / plain.NsPerOp
		fmt.Fprintf(out, "  tracing overhead: %+.1f%% (%s vs %s, tolerance %.0f%%)\n",
			100*overhead, batchObsBenchKey, batchBenchKey, 100*obsOverheadTolerance)
		if overhead > obsOverheadTolerance {
			return fmt.Errorf("baseline gate: tracing overhead %.1f%% exceeds %.0f%% (%s %.0f ns/op vs %s %.0f ns/op)",
				100*overhead, 100*obsOverheadTolerance,
				batchObsBenchKey, obsRun.NsPerOp, batchBenchKey, plain.NsPerOp)
		}
	}

	// Untraced path must not pick up allocations from the hooks.
	if was, ok := committed.Benchmarks[batchBenchKey]; ok && was.AllocsPerOp > 0 {
		if plain.AllocsPerOp > was.AllocsPerOp+allocSlack {
			return fmt.Errorf("baseline gate: %s allocates %d/op vs committed %d/op — the disabled-hook path must stay allocation-free",
				batchBenchKey, plain.AllocsPerOp, was.AllocsPerOp)
		}
	}

	// Durability tax: the WAL'd submit path (production fsync=interval
	// policy) against the same fresh run's in-memory submit path, at
	// the 99th percentile. The statistic is the median of paired
	// interleaved-round p99 ratios computed by measureSubmitScenarios —
	// a within-run ratio, so disk and CPU speed cancel out, and a
	// paired one, so environment drift mid-run cancels too.
	if durable, ok := fresh.Benchmarks[submitWALBenchKey]; ok && durable.P99NsPerOp > 0 {
		fmt.Fprintf(out, "  wal submit p99 overhead: %+.1f%% (median paired-round ratio, %s vs %s, tolerance %.0f%%)\n",
			durable.P99OverheadPct, submitWALBenchKey, submitNoWALBenchKey, 100*walOverheadTolerance)
		if durable.P99OverheadPct > 100*walOverheadTolerance {
			return fmt.Errorf("baseline gate: wal submit p99 overhead %+.1f%% exceeds %.0f%% — fsync=interval durability must stay within %.0f%% of the in-memory submit path",
				durable.P99OverheadPct, 100*walOverheadTolerance, 100*walOverheadTolerance)
		}
	}

	// Fleet tax: the gateway hop against the same fresh run's direct
	// node hit, gated as an ABSOLUTE median paired-round p99 delta —
	// the hop's price does not scale with solve time, so a fixed
	// ceiling is the honest bound (bench_gateway.go).
	if fwd, ok := fresh.Benchmarks[fwdGatewayBenchKey]; ok && fwd.P99NsPerOp > 0 {
		fmt.Fprintf(out, "  gateway hop p99 delta: %+.0f ns (median paired-round, %s vs %s, ceiling %.0f ns)\n",
			fwd.P99HopDeltaNs, fwdGatewayBenchKey, fwdDirectBenchKey, gatewayHopCeilingNs)
		if fwd.P99HopDeltaNs > gatewayHopCeilingNs {
			return fmt.Errorf("baseline gate: gateway hop p99 delta %.0f ns exceeds %.0f ns — the forwarded hop must stay within 1ms of a direct node hit",
				fwd.P99HopDeltaNs, gatewayHopCeilingNs)
		}
	}
	return nil
}

// runBench is the -exp bench entry point: measure, optionally persist
// to -bench-out, optionally gate against -bench-against.
func runBench(out io.Writer, outPath, againstPath string) error {
	base, err := measureBaseline()
	if err != nil {
		return err
	}
	renderBaseline(out, base)
	if outPath != "" {
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "baseline written to %s\n", outPath)
	}
	if againstPath != "" {
		committed, err := loadBaseline(againstPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "against %s:\n", againstPath)
		if err := compareBaselines(out, base, committed); err != nil {
			return err
		}
		fmt.Fprintln(out, "baseline gate passed")
	}
	return nil
}
