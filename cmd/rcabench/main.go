// Command rcabench regenerates the paper's evaluation artifacts and
// the repository's ablation tables. The experiment index:
//
//	e1  Figure 1 — distance graph of the example loop
//	e2  Results ¶1 — random patterns, greedy vs naive merging (~40%)
//	e3  Results ¶2 — DSP kernels, code size & speed vs naive compiler
//	a1  ablation — phase-1 bound quality
//	a2  ablation — merge strategies
//	a3  ablation — inter-iteration modelling
//	a4  ablation — scalar offset assignment (SOA/GOA)
//	a5  extension — AGU index (modify) registers
//	a6  extension — modulo (circular-buffer) addressing
//	all everything above
//
// A separate tooling mode, not part of "all":
//
//	bench  the CI regression gates (see bench.go): the parent's and
//	       the change's root test binaries (-bench-base, -bench-head)
//	       run the engine benchmarks in interleaved rounds, then the
//	       WAL-submit and gateway-hop gates run in process
//
// Usage:
//
//	rcabench -exp e2 -trials 100 -seed 1998
//	rcabench -exp bench -bench-base base.test -bench-head head.test
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dspaddr/internal/experiments"
	"dspaddr/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rcabench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rcabench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: e1|e2|e3|a1|a2|a3|a4|a5|a6|all, or bench (regression gates)")
	trials := fs.Int("trials", 100, "trials per sweep cell")
	seed := fs.Int64("seed", 1998, "random seed")
	k := fs.Int("k", 4, "register count for e3/a2/a3")
	m := fs.Int("m", 1, "modify range for e3/a2/a3")
	dist := fs.String("dist", "uniform", "random pattern distribution for e2: uniform|clustered|walk")
	markdown := fs.Bool("md", false, "emit markdown tables")
	benchBase := fs.String("bench-base", "", "with -exp bench: the parent's root test binary (go test -c)")
	benchHead := fs.String("bench-head", "", "with -exp bench: the change's root test binary, gated against -bench-base")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *exp == "bench" {
		return runBench(out, *benchBase, *benchHead)
	}

	render := func(t interface {
		String() string
		Markdown() string
	}) {
		if *markdown {
			fmt.Fprintln(out, t.Markdown())
		} else {
			fmt.Fprintln(out, t.String())
		}
	}

	want := func(name string) bool { return *exp == name || *exp == "all" }
	ran := false

	if want("e1") {
		ran = true
		r, err := experiments.RunFig1()
		if err != nil {
			return err
		}
		render(r.Table())
		fmt.Fprintf(out, "minimal zero-cost cover: %v\n\n%s\n", r.Cover, r.DOT)
	}
	if want("e2") {
		ran = true
		p := experiments.DefaultE2Params()
		p.Trials = *trials
		p.Seed = *seed
		d, err := workload.ParseDistribution(*dist)
		if err != nil {
			return err
		}
		p.Dist = d
		r, err := experiments.RunE2(p)
		if err != nil {
			return err
		}
		render(r.Table())
	}
	if want("e3") {
		ran = true
		p := experiments.DefaultE3Params()
		p.Registers = *k
		p.ModifyRange = *m
		r, err := experiments.RunE3(p)
		if err != nil {
			return err
		}
		render(r.Table())
	}
	if want("a1") {
		ran = true
		rows, err := experiments.RunA1([]int{8, 12, 16}, []int{1, 2}, *trials, *seed)
		if err != nil {
			return err
		}
		render(experiments.A1Table(rows))
	}
	if want("a2") {
		ran = true
		rows, err := experiments.RunA2([]int{8, 12, 20, 30, 64, 128, 256}, *k/2+1, *m, *trials, *seed)
		if err != nil {
			return err
		}
		render(experiments.A2Table(rows, *k/2+1, *m))
	}
	if want("a3") {
		ran = true
		rows, err := experiments.RunA3(*k, *m, *trials, *seed)
		if err != nil {
			return err
		}
		render(experiments.A3Table(rows, *k, *m))
	}
	if want("a4") {
		ran = true
		rows, err := experiments.RunA4([]int{12, 24, 48}, 7, *trials, *seed)
		if err != nil {
			return err
		}
		render(experiments.A4Table(rows))
	}
	if want("a5") {
		ran = true
		rows, err := experiments.RunA5([]int{10, 20, 30}, *k/2, *m, *trials, *seed)
		if err != nil {
			return err
		}
		render(experiments.A5Table(rows, *k/2, *m))
	}
	if want("a6") {
		ran = true
		rows, err := experiments.RunA6([]int{4, 8, 16, 32}, 64, *seed)
		if err != nil {
			return err
		}
		render(experiments.A6Table(rows, 64))
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
