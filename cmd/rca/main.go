// Command rca allocates AGU address registers for a DSP loop written
// in the mini-C loop language, reports the allocation and optionally
// prints the generated DSP assembly next to the naive-compiler
// baseline.
//
// Usage:
//
//	rca [flags] loop.c
//	rca -example            # the paper's Section 2 loop
//
// Flags:
//
//	-k int      number of AGU address registers (default 4)
//	-m int      AGU modify range M (default 1)
//	-wrap       include inter-iteration updates in the objective
//	-strategy   phase-2 merge strategy: greedy|naive|smallest|optimal (default greedy)
//	-bind a=1,b=2   bindings for symbolic loop bounds
//	-asm        print generated assembly (optimized and naive)
//	-run        execute both programs on the simulator and report cycles
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dspaddr/internal/codegen"
	"dspaddr/internal/core"
	"dspaddr/internal/dspsim"
	"dspaddr/internal/frontend"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/offsetassign"
)

const exampleLoop = `
for (i = 2; i <= N; i++) {
    A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2];
}`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rca:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rca", flag.ContinueOnError)
	k := fs.Int("k", 4, "number of AGU address registers")
	m := fs.Int("m", 1, "AGU modify range M")
	wrap := fs.Bool("wrap", false, "include inter-iteration updates in the objective")
	strategy := fs.String("strategy", "greedy", "merge strategy: greedy|naive|smallest|optimal")
	bind := fs.String("bind", "N=100", "comma-separated bindings for symbolic bounds, e.g. N=100")
	asm := fs.Bool("asm", false, "print generated assembly")
	exec := fs.Bool("run", false, "execute on the simulator and report cycles")
	example := fs.Bool("example", false, "use the paper's example loop")
	if err := fs.Parse(args); err != nil {
		return err
	}

	src := exampleLoop
	if !*example {
		if fs.NArg() != 1 {
			return fmt.Errorf("expected one loop file (or -example)")
		}
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	}
	bindings, err := parseBindings(*bind)
	if err != nil {
		return err
	}
	prog, err := frontend.Parse(src, bindings)
	if err != nil {
		return err
	}

	strat, _, ok := merge.ByName(*strategy)
	if !ok {
		return fmt.Errorf("unknown strategy %q", *strategy)
	}

	cfg := core.Config{
		AGU:            model.AGUSpec{Registers: *k, ModifyRange: *m},
		InterIteration: *wrap,
		Strategy:       strat,
	}
	alloc, err := core.AllocateLoop(prog.Loop, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "loop: %d iterations, %d array accesses, arrays %v\n",
		prog.Loop.Iterations(), len(prog.Loop.Accesses), prog.Loop.Arrays())
	for _, aa := range alloc.Arrays {
		fmt.Fprintf(out, "\n--- array %s (registers %v) ---\n%s",
			aa.Result.Pattern.Array, aa.GlobalRegisters, aa.Result.Report())
	}
	fmt.Fprintf(out, "\ntotal: %d unit-cost address computation(s)/iteration on %d register(s)\n",
		alloc.TotalCost, alloc.RegistersUsed)

	if len(prog.Scalars) > 0 {
		seq := make([]string, len(prog.Scalars))
		for i, s := range prog.Scalars {
			seq[i] = s.Name
		}
		layout := offsetassign.TieBreakSOA(seq)
		naiveLayout := offsetassign.FirstUse(seq)
		fmt.Fprintf(out, "\nscalars: layout %v — SOA cost %d/iteration (first-use order would cost %d)\n",
			layout.Order, layout.Cost(seq), naiveLayout.Cost(seq))
	}

	if !*asm && !*exec {
		return nil
	}
	bases, words := codegen.AutoBases(prog.Loop)
	opt, err := codegen.GenerateOptimized(alloc, bases, dspsim.ADD)
	if err != nil {
		return err
	}
	naive, err := codegen.GenerateNaive(prog.Loop, bases, *m, dspsim.ADD)
	if err != nil {
		return err
	}
	if err := opt.Verify(words); err != nil {
		return fmt.Errorf("generated code failed verification: %w", err)
	}
	if err := naive.Verify(words); err != nil {
		return fmt.Errorf("naive code failed verification: %w", err)
	}
	if *asm {
		fmt.Fprintf(out, "\n=== optimized assembly (%d words) ===\n%s", opt.CodeWords(), dspsim.Disassemble(opt.Code))
		fmt.Fprintf(out, "\n=== naive assembly (%d words) ===\n%s", naive.CodeWords(), dspsim.Disassemble(naive.Code))
	}
	if *exec {
		mo, err := opt.Run(words)
		if err != nil {
			return err
		}
		mn, err := naive.Run(words)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nsimulated: optimized %d cycles, naive %d cycles (%.1f%% faster); code %d vs %d words (%.1f%% smaller)\n",
			mo.Cycles, mn.Cycles, 100*float64(mn.Cycles-mo.Cycles)/float64(mn.Cycles),
			opt.CodeWords(), naive.CodeWords(),
			100*float64(naive.CodeWords()-opt.CodeWords())/float64(naive.CodeWords()))
	}
	return nil
}

func parseBindings(s string) (map[string]int, error) {
	out := map[string]int{}
	if strings.TrimSpace(s) == "" {
		return out, nil
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad binding %q", kv)
		}
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("bad binding value %q", kv)
		}
		out[parts[0]] = v
	}
	return out, nil
}
