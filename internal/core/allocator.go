// Package core implements the paper's primary contribution: the
// register-constrained address register allocator for array accesses in
// DSP program loops (Basu, Leupers, Marwedel, DATE 1998).
//
// Allocation proceeds in the paper's two phases. Phase 1 covers the
// pattern's distance graph with the minimum number K~ of zero-cost
// paths (package pathcover). If K~ exceeds the AGU's physical register
// count K, phase 2 merges path pairs — by default the pair minimizing
// the merged path cost C(P_i ⊕ P_j) — until K paths remain (package
// merge). The result maps every array access to an address register and
// reports the number of unit-cost address computations per loop
// iteration.
package core

import (
	"context"
	"fmt"
	"strings"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/obs"
	"dspaddr/internal/pathcover"
)

// Config controls an allocation.
type Config struct {
	// AGU describes the target's address generation unit: the register
	// constraint K and modify range M.
	AGU model.AGUSpec
	// InterIteration includes each register's loop-back update in the
	// zero-cost definition of phase 1 and in the cost objective of
	// phase 2. With it disabled the allocator optimizes the paper's
	// intra-iteration objective; the generated code still performs the
	// wrap updates, they are just not part of the objective.
	InterIteration bool
	// Strategy selects the phase-2 merge heuristic; nil means the
	// paper's greedy minimum-pair-cost strategy.
	Strategy merge.Strategy
	// CoverOptions tunes the phase-1 branch-and-bound search.
	CoverOptions *pathcover.Options
}

func (c Config) withDefaults() Config {
	if c.Strategy == nil {
		c.Strategy = merge.Greedy{}
	}
	return c
}

// Result is the outcome of allocating one access pattern.
type Result struct {
	// Pattern is the allocated access pattern.
	Pattern model.Pattern
	// Config echoes the configuration used.
	Config Config
	// VirtualRegisters is K~, the phase-1 minimum number of registers
	// for an all-zero-cost addressing scheme.
	VirtualRegisters int
	// CoverZeroCost reports whether phase 1 found a fully zero-cost
	// cover under the configured objective (it can be false only with
	// InterIteration set and loop stride exceeding the modify range).
	CoverZeroCost bool
	// CoverExact reports whether K~ is proven minimal.
	CoverExact bool
	// Assignment maps accesses to the K (or fewer) physical registers.
	Assignment model.Assignment
	// Cost is the number of unit-cost address computations per loop
	// iteration under the configured objective.
	Cost int
	// Merged reports whether phase 2 had to merge paths (K~ > K).
	Merged bool
}

// Solver runs the two-phase allocator with a private set of reusable
// workspaces: the distance graph's bit matrix, the phase-1
// matcher and branch-and-bound scratch, and the phase-2 merge buffers.
// A solver serving a stream of requests (one per engine worker) stops
// rebuilding its model objects from heap on every solve; results never
// alias the scratch. A Solver is not safe for concurrent use — give
// each worker its own.
type Solver struct {
	dg    distgraph.Graph
	cover pathcover.Scratch
	merge merge.Scratch
}

// NewSolver returns a ready solver; its workspaces grow lazily to the
// largest request seen.
func NewSolver() *Solver { return &Solver{} }

// Allocate runs the two-phase allocator on a single-array access
// pattern. The solve is cooperatively cancelable: the phase-1
// branch-and-bound checks ctx at node-expansion granularity and the
// phase-2 greedy merge once per round, so a canceled ctx aborts with
// its error instead of running the solve to completion.
func (s *Solver) Allocate(ctx context.Context, pat model.Pattern, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.AGU.Validate(); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("graph.build")
	if err := s.dg.Rebuild(pat, cfg.AGU.ModifyRange); err != nil {
		sp.Note("error").End()
		return nil, err
	}
	sp.Attr("accesses", int64(s.dg.N())).End()

	cover, err := pathcover.MinCoverCtx(ctx, &s.dg, cfg.InterIteration, cfg.CoverOptions, &s.cover)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Pattern:          pat,
		Config:           cfg,
		VirtualRegisters: cover.K(),
		CoverZeroCost:    cover.ZeroCost,
		CoverExact:       cover.Exact,
	}

	k := cfg.AGU.Registers
	if cover.K() <= k {
		res.Assignment = cover.Assignment().Normalize()
	} else {
		a, err := merge.ReduceContext(ctx, cfg.Strategy, cover.Paths, pat, cfg.AGU.ModifyRange, cfg.InterIteration, k, &s.merge)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: phase 2 failed: %w", err)
		}
		res.Assignment = a
		res.Merged = true
	}
	sp = tr.StartSpan("assign.commit")
	res.Cost = res.Assignment.Cost(pat, cfg.AGU.ModifyRange, cfg.InterIteration)
	sp.Attr("cost", int64(res.Cost)).Attr("registers", int64(res.Assignment.Registers())).End()
	return res, nil
}

// Allocate runs the two-phase allocator on a single-array access
// pattern with a transient solver.
func Allocate(pat model.Pattern, cfg Config) (*Result, error) {
	return AllocateContext(context.Background(), pat, cfg)
}

// AllocateContext is Allocate with cooperative cancellation (see
// Solver.Allocate).
func AllocateContext(ctx context.Context, pat model.Pattern, cfg Config) (*Result, error) {
	return NewSolver().Allocate(ctx, pat, cfg)
}

// Report renders a human-readable allocation report.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pattern:   %s\n", r.Pattern)
	fmt.Fprintf(&b, "AGU:       %s\n", r.Config.AGU)
	objective := "intra-iteration"
	if r.Config.InterIteration {
		objective = "inter-iteration (wrap included)"
	}
	fmt.Fprintf(&b, "objective: %s\n", objective)
	exact := ""
	if !r.CoverExact {
		exact = " (bound, search truncated)"
	}
	fmt.Fprintf(&b, "phase 1:   K~ = %d virtual registers%s, zero-cost=%v\n", r.VirtualRegisters, exact, r.CoverZeroCost)
	if r.Merged {
		fmt.Fprintf(&b, "phase 2:   merged down to %d registers\n", r.Assignment.Registers())
	} else {
		fmt.Fprintf(&b, "phase 2:   not needed (K~ <= K)\n")
	}
	fmt.Fprintf(&b, "result:    %s\n", r.Assignment)
	fmt.Fprintf(&b, "cost:      %d unit-cost address computation(s) per iteration\n", r.Cost)
	return b.String()
}
