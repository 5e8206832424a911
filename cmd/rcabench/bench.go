// Regression gates (-exp bench). Every gate compares two measurements
// taken in the same run on the same machine, so the machine's speed
// cancels out.
//
// The micro-gate runs the root package's engine benchmarks
// (bench_test.go) from two compiled test binaries: the parent's
// (-bench-base) and the change's (-bench-head). They run in
// benchRounds interleaved rounds, and the side that goes first
// alternates. From the repository root:
//
//	git worktree add ../dspaddr-base <parent commit>
//	(cd ../dspaddr-base && go test -c -o base.test .)
//	go test -c -o head.test .
//	go run ./cmd/rcabench -exp bench -bench-base ../dspaddr-base/base.test -bench-head head.test
//
// On the medians over the rounds, the run fails when any of these
// holds:
//   - a gated benchmark is more than 25% slower in head than in base;
//   - head's traced batch costs more than 10% over head's untraced
//     batch;
//   - head's untraced batch allocates more than allocSlack allocs/op
//     over base's;
//   - a gated benchmark is missing from head.
//
// A benchmark the base lacks is printed as new and not compared.
//
// The HTTP gates measure this binary's own code in paired,
// interleaved rounds (bench_wal.go, bench_gateway.go). The run fails
// when the WAL'd submit path adds more than 15% p99 over the in-memory
// submit path, or when the gateway hop adds more than 1ms p99 over a
// direct node hit.
//
// The bench mode is deliberately not part of "-exp all": it spends
// minutes of wall-clock measurement, which the paper tables do not
// need.

package main

import (
	"errors"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The gated benchmarks: the end-to-end cold-cache batch through the
// serving engine, the warm hit-dominated parallel path across the
// sharded cache, the cold batch under a per-request trace, and a cold
// batch of the served mix, whose cost sits in phase 1 rather than in
// the merge.
const (
	batchBench     = "BenchmarkEngineBatch"
	parallelBench  = "BenchmarkEngineParallelWarm"
	tracedBench    = "BenchmarkEngineBatchTraced"
	servedMixBench = "BenchmarkEngineBatchServedMix"
)

var gatedBenchmarks = []string{batchBench, parallelBench, tracedBench, servedMixBench}

// benchRounds is how many times each test binary runs the gated set.
const benchRounds = 6

// regressionTolerance is how much slower (fractionally) head's median
// of a gated benchmark may be than base's.
const regressionTolerance = 0.25

// obsOverheadTolerance bounds head's traced batch against head's
// untraced batch: tracing every phase of 64 jobs may cost at most
// this fraction extra.
const obsOverheadTolerance = 0.10

// allocSlack is how many allocs/op head's untraced batch may gain over
// base's: the "observability hooks disabled = zero extra allocations"
// guarantee, with a little room for scheduler-dependent map growth.
const allocSlack = 8

// benchSamples is one benchmark's results from one side, one entry
// per round.
type benchSamples struct {
	ns, allocs []float64
}

// benchRuns maps a benchmark name, GOMAXPROCS suffix stripped, to its
// samples.
type benchRuns map[string]*benchSamples

// parse adds the result lines of one `go test -bench -benchmem` output
// to runs; every other line is ignored.
func (runs benchRuns) parse(text string) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := stripProcs(f[0])
		s := runs[name]
		if s == nil {
			s = &benchSamples{}
			runs[name] = s
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
	}
}

// stripProcs drops the "-N" GOMAXPROCS suffix `go test` appends to a
// benchmark name, so runs on differently sized runners line up.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// quartiles returns the lower quartile, median and upper quartile of
// xs, interpolating between order statistics; 0s for no samples.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 == len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// formatSide renders one side's median ns/op with its IQR and its
// median allocs/op.
func formatSide(s *benchSamples) string {
	q1, m, q3 := quartiles(s.ns)
	return fmt.Sprintf("%11.0f ns/op [%.0f–%.0f] %6.0f allocs/op", m, q1, q3, median(s.allocs))
}

// compareRuns prints every benchmark's medians and fails when a gate
// is breached; every breach is reported, not just the first.
func compareRuns(out io.Writer, base, head benchRuns) error {
	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	for name := range base {
		if head[name] == nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b, h := base[name], head[name]
		switch {
		case h == nil:
			fmt.Fprintf(out, "  %-28s base %s  head missing\n", name, formatSide(b))
		case b == nil:
			fmt.Fprintf(out, "  %-28s head %s  new: not in base\n", name, formatSide(h))
		default:
			fmt.Fprintf(out, "  %-28s base %s  head %s  ratio %.3f\n",
				name, formatSide(b), formatSide(h), median(h.ns)/median(b.ns))
		}
	}

	var fails []error
	for _, name := range gatedBenchmarks {
		b, h := base[name], head[name]
		if h == nil {
			fails = append(fails, fmt.Errorf("micro-gate: %s missing from head", name))
			continue
		}
		if b == nil {
			continue
		}
		if r := median(h.ns) / median(b.ns); r > 1+regressionTolerance {
			fails = append(fails, fmt.Errorf("micro-gate: %s is %.1f%% slower than base (%.0f -> %.0f ns/op, tolerance %.0f%%)",
				name, 100*(r-1), median(b.ns), median(h.ns), 100*regressionTolerance))
		}
	}

	if plain, traced := head[batchBench], head[tracedBench]; plain != nil && traced != nil {
		overhead := median(traced.ns)/median(plain.ns) - 1
		fmt.Fprintf(out, "  tracing overhead: %+.1f%% (head %s vs %s, tolerance %.0f%%)\n",
			100*overhead, tracedBench, batchBench, 100*obsOverheadTolerance)
		if overhead > obsOverheadTolerance {
			fails = append(fails, fmt.Errorf("micro-gate: tracing overhead %.1f%% exceeds %.0f%%",
				100*overhead, 100*obsOverheadTolerance))
		}
	}

	if b, h := base[batchBench], head[batchBench]; b != nil && h != nil {
		if median(h.allocs) > median(b.allocs)+allocSlack {
			fails = append(fails, fmt.Errorf("micro-gate: %s allocates %.0f/op vs base %.0f/op — the disabled-hook path must stay allocation-free",
				batchBench, median(h.allocs), median(b.allocs)))
		}
	}
	return errors.Join(fails...)
}

// runRounds runs both test binaries benchRounds times, alternating
// which goes first, echoes each raw output to out and returns the
// parsed results.
func runRounds(out io.Writer, baseBin, headBin string) (base, head benchRuns, err error) {
	base, head = benchRuns{}, benchRuns{}
	sides := []struct {
		name, bin, path string
		runs            benchRuns
	}{{"base", baseBin, "", base}, {"head", headBin, "", head}}
	for i := range sides {
		// An absolute path, so exec never searches $PATH for a bare
		// file name.
		if sides[i].path, err = filepath.Abs(sides[i].bin); err != nil {
			return nil, nil, err
		}
	}
	pattern := "^(" + strings.Join(gatedBenchmarks, "|") + ")$"
	for r := 0; r < benchRounds; r++ {
		for i := range sides {
			s := sides[(r+i)%len(sides)]
			raw, err := exec.Command(s.path, "-test.run", "^$", "-test.bench", pattern,
				"-test.benchmem", "-test.count", "1").CombinedOutput()
			fmt.Fprintf(out, "--- round %d/%d %s (%s)\n%s", r+1, benchRounds, s.name, s.bin, raw)
			if err != nil {
				return nil, nil, fmt.Errorf("%s %s: %w", s.name, s.bin, err)
			}
			s.runs.parse(string(raw))
		}
	}
	return base, head, nil
}

// checkHTTPGates applies the two HTTP bounds to their measured
// statistics.
func checkHTTPGates(out io.Writer, walOverheadPct, hopDeltaNs float64) error {
	var fails []error
	fmt.Fprintf(out, "  wal submit p99 overhead: %+.1f%% (median paired-round ratio, %s vs %s, tolerance %.0f%%)\n",
		walOverheadPct, submitWALBenchKey, submitNoWALBenchKey, 100*walOverheadTolerance)
	if walOverheadPct > 100*walOverheadTolerance {
		fails = append(fails, fmt.Errorf("http gate: wal submit p99 overhead %+.1f%% exceeds %.0f%% — fsync=interval durability must stay within %.0f%% of the in-memory submit path",
			walOverheadPct, 100*walOverheadTolerance, 100*walOverheadTolerance))
	}
	fmt.Fprintf(out, "  gateway hop p99 delta: %+.0f ns (median paired-round, %s vs %s, ceiling %.0f ns)\n",
		hopDeltaNs, fwdGatewayBenchKey, fwdDirectBenchKey, gatewayHopCeilingNs)
	if hopDeltaNs > gatewayHopCeilingNs {
		fails = append(fails, fmt.Errorf("http gate: gateway hop p99 delta %.0f ns exceeds %.0f ns — the forwarded hop must stay within 1ms of a direct node hit",
			hopDeltaNs, gatewayHopCeilingNs))
	}
	return errors.Join(fails...)
}

// runBench is the -exp bench entry point: the micro-gate on the two
// test binaries, then the HTTP gates. Every breach is reported.
func runBench(out io.Writer, baseBin, headBin string) error {
	if baseBin == "" || headBin == "" {
		return errors.New("-exp bench needs -bench-base and -bench-head (root package test binaries; see cmd/rcabench/bench.go)")
	}
	base, head, err := runRounds(out, baseBin, headBin)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "micro-gate: medians over %d interleaved rounds, [IQR]\n", benchRounds)
	microErr := compareRuns(out, base, head)

	fmt.Fprintln(out, "http gates:")
	walPct, err := measureSubmitScenarios(out)
	if err != nil {
		return err
	}
	hopNs, err := measureGatewayScenarios(out)
	if err != nil {
		return err
	}
	if err := errors.Join(microErr, checkHTTPGates(out, walPct, hopNs)); err != nil {
		return err
	}
	fmt.Fprintln(out, "bench gates passed")
	return nil
}
