package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/offsetassign"
	"dspaddr/internal/pathcover"
	"dspaddr/internal/stats"
	"dspaddr/internal/workload"
)

// A1Row summarizes phase-1 bound quality for one (N, M) point under
// the wrap-inclusive objective: the matching lower bound, the greedy
// upper bound and the branch-and-bound exact K~.
type A1Row struct {
	N, M                           int
	MeanLB, MeanGreedy, MeanExact  float64
	LBTight, GreedyTight, AllExact float64 // percent of instances
}

// RunA1 measures the phase-1 bounds on random patterns.
func RunA1(ns, ms []int, trials int, seed int64) ([]A1Row, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []A1Row
	for _, n := range ns {
		for _, m := range ms {
			var lb, ub, exact stats.Sample
			lbTight, ubTight, exactCnt := 0, 0, 0
			for trial := 0; trial < trials; trial++ {
				pat, err := workload.RandomPattern(rng, workload.RandomParams{N: n, OffsetRange: 8})
				if err != nil {
					return nil, err
				}
				dg, err := distgraph.Build(pat, m)
				if err != nil {
					return nil, err
				}
				l := pathcover.LowerBound(dg)
				g := len(pathcover.GreedyCover(dg, true))
				c := pathcover.MinCover(dg, true, nil)
				lb.AddInt(l)
				ub.AddInt(g)
				exact.AddInt(c.K())
				if c.Exact {
					exactCnt++
				}
				if l == c.K() {
					lbTight++
				}
				if g == c.K() {
					ubTight++
				}
			}
			rows = append(rows, A1Row{
				N: n, M: m,
				MeanLB: lb.Mean(), MeanGreedy: ub.Mean(), MeanExact: exact.Mean(),
				LBTight:     100 * float64(lbTight) / float64(trials),
				GreedyTight: 100 * float64(ubTight) / float64(trials),
				AllExact:    100 * float64(exactCnt) / float64(trials),
			})
		}
	}
	return rows, nil
}

// A1Table renders the bound-quality ablation.
func A1Table(rows []A1Row) *stats.Table {
	t := stats.NewTable("A1 — phase-1 bound quality (wrap-inclusive objective)",
		"N", "M", "mean LB", "mean greedy", "mean exact K~", "LB tight %", "greedy tight %", "proven %")
	for _, r := range rows {
		t.AddRowf(r.N, r.M, r.MeanLB, r.MeanGreedy, r.MeanExact, r.LBTight, r.GreedyTight, r.AllExact)
	}
	return t
}

// A2Row compares merge strategies at one (N, K) point (M fixed by the
// caller): mean unit-cost computations after reduction.
type A2Row struct {
	N, K                                      int
	Greedy, Naive, Random, Smallest, Annealed float64
	// Optimal is the exact minimum for the intra-iteration objective
	// (a cheapest matching of program-ordered arcs —
	// pathcover.MinCostCover), polynomial at every N.
	Optimal float64
}

// RunA2 measures the merge-strategy ablation against the exact
// optimum.
func RunA2(ns []int, k, m, trials int, seed int64) ([]A2Row, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []A2Row
	for _, n := range ns {
		var g, nv, rd, sm, an, op stats.Sample
		for trial := 0; trial < trials; trial++ {
			pat, err := workload.RandomPattern(rng, workload.RandomParams{N: n, OffsetRange: 8})
			if err != nil {
				return nil, err
			}
			dg, err := distgraph.Build(pat, m)
			if err != nil {
				return nil, err
			}
			cover := pathcover.MinCover(dg, false, nil)
			for _, s := range []struct {
				strat merge.Strategy
				dst   *stats.Sample
			}{
				{merge.Greedy{}, &g},
				{merge.Naive{}, &nv},
				{merge.Random{Rng: rand.New(rand.NewSource(seed + int64(trial)))}, &rd},
				{merge.SmallestTwo{}, &sm},
			} {
				a, err := merge.Reduce(s.strat, cover.Paths, pat, m, false, k)
				if err != nil {
					return nil, err
				}
				s.dst.AddInt(a.Cost(pat, m, false))
			}
			sa := merge.Anneal(cover.Paths, pat, m, false, k,
				rand.New(rand.NewSource(seed^int64(trial))), &merge.AnnealOptions{Steps: 3000})
			an.AddInt(sa.Cost(pat, m, false))
			_, cost, err := pathcover.MinCostCover(context.Background(), dg, k, nil)
			if err != nil {
				return nil, err
			}
			op.AddInt(cost)
		}
		rows = append(rows, A2Row{
			N: n, K: k,
			Greedy: g.Mean(), Naive: nv.Mean(), Random: rd.Mean(),
			Smallest: sm.Mean(), Annealed: an.Mean(), Optimal: op.Mean(),
		})
	}
	return rows, nil
}

// A2Table renders the merge-strategy ablation.
func A2Table(rows []A2Row, k, m int) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("A2 — merge strategies, mean cost after reduction to K=%d (M=%d)", k, m),
		"N", "greedy", "naive", "random", "smallest-two", "annealed", "optimal")
	for _, r := range rows {
		t.AddRowf(r.N, r.Greedy, r.Naive, r.Random, r.Smallest, r.Annealed, r.Optimal)
	}
	return t
}

// A3Row measures the inter-iteration modelling ablation for one
// workload: the wrap-inclusive cost (what the hardware executes) when
// the optimizer ignores wraps versus when it models them.
type A3Row struct {
	Workload             string
	IntraOnly, WrapAware float64
	Benefit              float64 // percent reduction from modelling wraps
}

// RunA3 compares the two objectives on random patterns (aggregated)
// and on every library kernel's array patterns.
func RunA3(k, m, trials int, seed int64) ([]A3Row, error) {
	rng := rand.New(rand.NewSource(seed))
	var rows []A3Row

	evalBoth := func(pat model.Pattern) (intra, wrap int, err error) {
		dg, err := distgraph.Build(pat, m)
		if err != nil {
			return 0, 0, err
		}
		for _, aware := range []bool{false, true} {
			cover := pathcover.MinCover(dg, aware, nil)
			a, err := merge.Reduce(merge.Greedy{}, cover.Paths, pat, m, aware, k)
			if err != nil {
				return 0, 0, err
			}
			cost := a.Cost(pat, m, true) // hardware metric
			if aware {
				wrap = cost
			} else {
				intra = cost
			}
		}
		return intra, wrap, nil
	}

	var ri, rw stats.Sample
	for trial := 0; trial < trials; trial++ {
		pat, err := workload.RandomPattern(rng, workload.RandomParams{N: 20, OffsetRange: 8})
		if err != nil {
			return nil, err
		}
		i, w, err := evalBoth(pat)
		if err != nil {
			return nil, err
		}
		ri.AddInt(i)
		rw.AddInt(w)
	}
	rows = append(rows, A3Row{
		Workload:  fmt.Sprintf("random (N=20, %d trials)", trials),
		IntraOnly: ri.Mean(), WrapAware: rw.Mean(),
		Benefit: stats.PercentReduction(ri.Mean(), rw.Mean()),
	})

	for _, kn := range workload.AllKernels() {
		pats, _ := kn.Loop.Patterns()
		sumI, sumW := 0, 0
		for _, p := range pats {
			i, w, err := evalBoth(p)
			if err != nil {
				return nil, err
			}
			sumI += i
			sumW += w
		}
		rows = append(rows, A3Row{
			Workload:  kn.Name,
			IntraOnly: float64(sumI), WrapAware: float64(sumW),
			Benefit: stats.PercentReduction(float64(sumI), float64(sumW)),
		})
	}
	return rows, nil
}

// A3Table renders the wrap-modelling ablation.
func A3Table(rows []A3Row, k, m int) *stats.Table {
	t := stats.NewTable(fmt.Sprintf("A3 — inter-iteration modelling, wrap-inclusive cost (K=%d, M=%d)", k, m),
		"workload", "intra-only objective", "wrap-aware objective", "benefit %")
	for _, r := range rows {
		t.AddRowf(r.Workload, r.IntraOnly, r.WrapAware, r.Benefit)
	}
	return t
}

// A4Row compares scalar offset-assignment heuristics at one sequence
// length.
type A4Row struct {
	Length, Vars                      int
	FirstUse, Liao, TieBreak, Optimal float64
}

// RunA4 measures SOA heuristics on random scalar access sequences; the
// optimum is computed exactly (variable counts are kept small).
func RunA4(lengths []int, nvars, trials int, seed int64) ([]A4Row, error) {
	if nvars > 8 {
		return nil, fmt.Errorf("experiments: A4 optimum infeasible beyond 8 variables, got %d", nvars)
	}
	rng := rand.New(rand.NewSource(seed))
	letters := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var rows []A4Row
	for _, n := range lengths {
		var fu, li, tb, op stats.Sample
		for trial := 0; trial < trials; trial++ {
			seq := make([]string, n)
			for i := range seq {
				seq[i] = letters[rng.Intn(nvars)]
			}
			fu.AddInt(offsetassign.FirstUse(seq).Cost(seq))
			li.AddInt(offsetassign.LiaoSOA(seq).Cost(seq))
			tb.AddInt(offsetassign.TieBreakSOA(seq).Cost(seq))
			_, c := offsetassign.OptimalSOA(seq)
			op.AddInt(c)
		}
		rows = append(rows, A4Row{
			Length: n, Vars: nvars,
			FirstUse: fu.Mean(), Liao: li.Mean(), TieBreak: tb.Mean(), Optimal: op.Mean(),
		})
	}
	return rows, nil
}

// A4Table renders the SOA ablation.
func A4Table(rows []A4Row) *stats.Table {
	t := stats.NewTable("A4 — scalar offset assignment (complementary work [4,5])",
		"sequence length", "vars", "first-use", "Liao", "tie-break", "optimal")
	for _, r := range rows {
		t.AddRowf(r.Length, r.Vars, r.FirstUse, r.Liao, r.TieBreak, r.Optimal)
	}
	return t
}
