package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// benchRow is one synthetic benchmark result line.
type benchRow struct {
	name   string
	ns     float64
	allocs int
}

// benchOut renders rows as `go test -bench -benchmem` prints them,
// with suffix ("-2", or "" for GOMAXPROCS=1) after every name.
func benchOut(suffix string, rows ...benchRow) string {
	var b strings.Builder
	b.WriteString("goos: linux\ngoarch: amd64\npkg: dspaddr\ncpu: test\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s%s   \t    1000\t %10.0f ns/op\t  145040 B/op\t %6d allocs/op\n",
			r.name, suffix, r.ns, r.allocs)
	}
	b.WriteString("PASS\n")
	return b.String()
}

// gatedRows is a typical gated set: batch, parallel and traced batch
// at the given ns/op, the untraced batch at allocs allocs/op, and the
// served-mix batch at a fixed 150µs.
func gatedRows(batch, parallel, traced float64, allocs int) []benchRow {
	return []benchRow{
		{batchBench, batch, allocs},
		{parallelBench, parallel, 900},
		{tracedBench, traced, allocs - 80},
		{servedMixBench, 150e3, 300},
	}
}

func TestCompareBaselinesGate(t *testing.T) {
	aa := benchOut("-2", gatedRows(600e3, 1e6, 620e3, 1400)...)
	for _, tc := range []struct {
		name string
		// base and head hold one output per round; a single output
		// stands for benchRounds identical rounds.
		base, head []string
		wantErr    string // "" means the gate passes
		wantOut    string
	}{
		{name: "A/A passes", base: []string{aa}, head: []string{aa}, wantOut: "ratio 1.000"},
		{
			name:    "batch +30% fails",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(780e3, 1e6, 620e3, 1400)...)},
			wantErr: batchBench + " is 30.0% slower",
		},
		{
			name:    "parallel +30% fails",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(600e3, 1.3e6, 620e3, 1400)...)},
			wantErr: parallelBench + " is 30.0% slower",
		},
		{
			name:    "traced +30% fails",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(600e3, 1e6, 806e3, 1400)...)},
			wantErr: tracedBench + " is 30.0% slower",
		},
		{
			name:    "served mix +30% fails",
			base:    []string{aa},
			head:    []string{benchOut("-2", append(gatedRows(600e3, 1e6, 620e3, 1400)[:3], benchRow{servedMixBench, 195e3, 300})...)},
			wantErr: servedMixBench + " is 30.0% slower",
		},
		{
			name:    "+25% exactly passes",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(750e3, 1.25e6, 775e3, 1400)...)},
			wantOut: "ratio 1.250",
		},
		{
			name:    "traced +11% over plain fails",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(600e3, 1e6, 666e3, 1400)...)},
			wantErr: "tracing overhead 11.0% exceeds 10%",
		},
		{
			name:    "traced +9% over plain passes",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(600e3, 1e6, 654e3, 1400)...)},
			wantOut: "tracing overhead: +9.0%",
		},
		{
			name:    "+9 allocs/op fails",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(600e3, 1e6, 620e3, 1409)...)},
			wantErr: batchBench + " allocates 1409/op vs base 1400/op",
		},
		{
			name:    "+8 allocs/op passes",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(600e3, 1e6, 620e3, 1408)...)},
			wantOut: "1408 allocs/op",
		},
		{
			name:    "benchmark missing from base is new, not gated",
			base:    []string{benchOut("-2", gatedRows(600e3, 1e6, 620e3, 1400)[:2]...)},
			head:    []string{benchOut("-2", gatedRows(600e3, 1e6, 640e3, 1400)...)},
			wantOut: "new: not in base",
		},
		{
			name:    "gated benchmark missing from head fails",
			base:    []string{aa},
			head:    []string{benchOut("-2", gatedRows(600e3, 1e6, 620e3, 1400)[1:]...)},
			wantErr: batchBench + " missing from head",
		},
		{
			name:    "GOMAXPROCS suffix is stripped",
			base:    []string{aa},
			head:    []string{benchOut("", gatedRows(600e3, 1e6, 620e3, 1400)...)},
			wantOut: "ratio 1.000",
		},
		{
			name: "one slow round does not move the median",
			base: []string{aa},
			head: []string{aa, aa, aa,
				benchOut("-2", gatedRows(1.2e6, 2e6, 1.2e6, 1400)...), aa, aa},
			wantOut: "ratio 1.000",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, head := benchRuns{}, benchRuns{}
			for _, side := range []struct {
				runs    benchRuns
				outputs []string
			}{{base, tc.base}, {head, tc.head}} {
				outputs := side.outputs
				if len(outputs) == 1 {
					for len(outputs) < benchRounds {
						outputs = append(outputs, outputs[0])
					}
				}
				for _, text := range outputs {
					side.runs.parse(text)
				}
			}
			var out strings.Builder
			err := compareRuns(&out, base, head)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed: %v\n%s", err, out.String())
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want %q\n%s", tc.wantErr, out.String())
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q, want it to mention %q", err, tc.wantErr)
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Fatalf("output missing %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}

func TestHTTPGates(t *testing.T) {
	var out strings.Builder
	if err := checkHTTPGates(&out, 100*walOverheadTolerance, gatewayHopCeilingNs); err != nil {
		t.Fatalf("bounds exactly met failed the gate: %v", err)
	}
	if err := checkHTTPGates(&out, 100*walOverheadTolerance+0.1, 0); err == nil {
		t.Fatal("excess wal submit p99 overhead passed the gate")
	}
	if err := checkHTTPGates(&out, 0, gatewayHopCeilingNs+1); err == nil {
		t.Fatal("excess gateway hop p99 delta passed the gate")
	}
}

// TestRunRoundsAlternates runs two stand-in test binaries and checks
// the round schedule, the flags each run gets and the parsed samples.
func TestRunRoundsAlternates(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("stand-in binaries are shell scripts")
	}
	dir := t.TempDir()
	log := filepath.Join(dir, "calls.log")
	stub := func(side string, ns float64) string {
		path := filepath.Join(dir, side+".test")
		script := fmt.Sprintf("#!/bin/sh\necho \"%s $*\" >> %s\ncat <<'EOF'\n%sEOF\n",
			side, log, benchOut("-2", gatedRows(ns, 1e6, ns, 1400)...))
		if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	baseBin, headBin := stub("base", 500e3), stub("head", 600e3)

	var out strings.Builder
	base, head, err := runRounds(&out, baseBin, headBin)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	calls := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(calls) != 2*benchRounds {
		t.Fatalf("%d runs, want %d", len(calls), 2*benchRounds)
	}
	for r := 0; r < benchRounds; r++ {
		first := "base"
		if r%2 == 1 {
			first = "head"
		}
		if got := strings.Fields(calls[2*r])[0]; got != first {
			t.Errorf("round %d started with %s, want %s", r+1, got, first)
		}
	}
	want := "-test.run ^$ -test.bench ^(BenchmarkEngineBatch|BenchmarkEngineParallelWarm|BenchmarkEngineBatchTraced|BenchmarkEngineBatchServedMix)$ -test.benchmem -test.count 1"
	if !strings.HasSuffix(calls[0], want) {
		t.Errorf("run flags %q, want %q", calls[0], want)
	}
	if got := median(base[batchBench].ns); got != 500e3 {
		t.Errorf("base batch median %v", got)
	}
	if got := len(head[tracedBench].ns); got != benchRounds {
		t.Errorf("head traced has %d samples, want %d", got, benchRounds)
	}
	if !strings.Contains(out.String(), "--- round 6/6 base") {
		t.Errorf("raw output not echoed:\n%s", out.String())
	}
}

func TestBenchNeedsBothBinaries(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "bench"},
		{"-exp", "bench", "-bench-base", "base.test"},
		{"-exp", "bench", "-bench-head", "head.test"},
	} {
		if _, err := runToString(t, args...); err == nil || !strings.Contains(err.Error(), "-bench-base and -bench-head") {
			t.Errorf("%v: error %v, want one naming both flags", args, err)
		}
	}
}
