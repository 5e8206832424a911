package pathcover

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
)

// bruteMinZeroCover exhaustively partitions the accesses into
// zero-cost increasing subsequences and returns the minimum path
// count, or -1 if no zero-cost partition exists (possible only with
// wrap and stride > M). It is the reference oracle for the search.
func bruteMinZeroCover(dg *distgraph.Graph, wrap bool) int {
	n := dg.N()
	best := -1
	var open []model.Path
	var rec func(i int)
	rec = func(i int) {
		if best != -1 && len(open) >= best {
			return
		}
		if i == n {
			if wrap {
				for _, p := range open {
					if !dg.ZeroWrap(p[len(p)-1], p[0]) {
						return
					}
				}
			}
			if best == -1 || len(open) < best {
				best = len(open)
			}
			return
		}
		for pi := range open {
			tail := open[pi][len(open[pi])-1]
			if !dg.ZeroIntra(tail, i) {
				continue
			}
			open[pi] = append(open[pi], i)
			rec(i + 1)
			open[pi] = open[pi][:len(open[pi])-1]
		}
		open = append(open, model.Path{i})
		rec(i + 1)
		open = open[:len(open)-1]
	}
	rec(0)
	return best
}

func randomPattern(rng *rand.Rand, n, offsetRange, stride int) model.Pattern {
	offs := make([]int, n)
	for i := range offs {
		offs[i] = rng.Intn(2*offsetRange+1) - offsetRange
	}
	return model.Pattern{Array: "A", Stride: stride, Offsets: offs}
}

func validateCover(t *testing.T, dg *distgraph.Graph, paths []model.Path) {
	t.Helper()
	a := model.Assignment{Paths: paths}
	if err := a.Validate(dg.Pattern); err != nil {
		t.Fatalf("cover is not a valid partition: %v", err)
	}
}

func TestMinCoverDAGPaperExample(t *testing.T) {
	dg := distgraph.MustBuild(model.PaperExample(), 1)
	paths := MinCoverDAG(dg)
	validateCover(t, dg, paths)
	// The paper's example admits a two-register zero-cost allocation
	// intra-iteration, e.g. (a1,a3,a5,a6) and (a2,a4,a7); one register
	// is impossible because (a2,a3) has distance 2 > M.
	if len(paths) != 2 {
		t.Fatalf("K~ = %d, want 2 (paths %v)", len(paths), paths)
	}
	if !coverZeroCost(dg, paths, false) {
		t.Fatal("matching cover must be zero-cost intra-iteration")
	}
	if lb := LowerBound(dg); lb != 2 {
		t.Fatalf("LowerBound = %d, want 2", lb)
	}
}

func TestMinCoverDAGMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(8)
		pat := randomPattern(rng, n, 4, 1)
		m := rng.Intn(3)
		dg := distgraph.MustBuild(pat, m)
		paths := MinCoverDAG(dg)
		validateCover(t, dg, paths)
		if !coverZeroCost(dg, paths, false) {
			t.Fatalf("cover not zero-cost: %v (pattern %v M=%d)", paths, pat, m)
		}
		want := bruteMinZeroCover(dg, false)
		if len(paths) != want {
			t.Fatalf("MinCoverDAG = %d paths, brute force = %d (pattern %v M=%d)", len(paths), want, pat, m)
		}
		if lb := LowerBound(dg); lb != want {
			t.Fatalf("LowerBound = %d, want %d", lb, want)
		}
	}
}

func TestGreedyCoverProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(12)
		stride := 1 + rng.Intn(2)
		pat := randomPattern(rng, n, 5, stride)
		m := rng.Intn(3)
		dg := distgraph.MustBuild(pat, m)
		for _, wrap := range []bool{false, true} {
			paths := GreedyCover(dg, wrap)
			validateCover(t, dg, paths)
			// Greedy never violates intra-iteration zero cost.
			if !coverZeroCost(dg, paths, false) {
				t.Fatalf("greedy cover has intra cost (pattern %v M=%d wrap=%v)", pat, m, wrap)
			}
			// Greedy is an upper bound on the exact answer.
			if exact := bruteMinZeroCover(dg, wrap); exact != -1 && len(paths) < exact {
				t.Fatalf("greedy %d beat exact %d", len(paths), exact)
			}
		}
	}
}

func TestGreedyCoverWrapInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(12)
		pat := randomPattern(rng, n, 5, 1)
		m := rng.Intn(3)
		dg := distgraph.MustBuild(pat, m)
		// With stride <= M every singleton is wrap-zero, so the greedy
		// wrap cover must be fully zero-cost.
		if pat.Stride > m {
			continue
		}
		paths := GreedyCover(dg, true)
		if !coverZeroCost(dg, paths, true) {
			t.Fatalf("greedy wrap cover not zero-cost (pattern %v M=%d): %v", pat, m, paths)
		}
	}
}

func TestMinCoverNoWrapIsExact(t *testing.T) {
	dg := distgraph.MustBuild(model.PaperExample(), 1)
	c := MinCover(dg, false, nil)
	if !c.Exact || !c.ZeroCost {
		t.Fatalf("no-wrap MinCover should be exact zero-cost: %+v", c)
	}
	if c.K() != 2 {
		t.Fatalf("K~ = %d, want 2", c.K())
	}
	validateCover(t, dg, c.Paths)
	if err := c.Assignment().Validate(dg.Pattern); err != nil {
		t.Fatalf("Assignment invalid: %v", err)
	}
}

func TestMinCoverWrapMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(9)
		stride := 1 + rng.Intn(3)
		pat := randomPattern(rng, n, 4, stride)
		m := rng.Intn(3)
		dg := distgraph.MustBuild(pat, m)
		c := MinCover(dg, true, nil)
		validateCover(t, dg, c.Paths)
		want := bruteMinZeroCover(dg, true)
		if want == -1 {
			if c.ZeroCost {
				t.Fatalf("MinCover claims zero-cost but brute force says infeasible (pattern %v M=%d)", pat, m)
			}
			continue
		}
		if !c.ZeroCost {
			t.Fatalf("MinCover found no zero-cost cover but brute force found %d (pattern %v M=%d)", want, pat, m)
		}
		if !c.Exact {
			t.Fatalf("small instance should be exact (pattern %v M=%d)", pat, m)
		}
		if c.K() != want {
			t.Fatalf("MinCover K~ = %d, brute force = %d (pattern %v M=%d)", c.K(), want, pat, m)
		}
		if !coverZeroCost(dg, c.Paths, true) {
			t.Fatalf("claimed zero-cost cover is not (pattern %v M=%d)", pat, m)
		}
	}
}

func TestMinCoverWrapPaperExample(t *testing.T) {
	dg := distgraph.MustBuild(model.PaperExample(), 1)
	c := MinCover(dg, true, nil)
	want := bruteMinZeroCover(dg, true)
	if c.K() != want || !c.ZeroCost || !c.Exact {
		t.Fatalf("wrap MinCover = %+v, brute force K~ = %d", c, want)
	}
	// Wrap constraints can only increase the register demand.
	if c.K() < 2 {
		t.Fatalf("wrap K~ = %d below intra K~ = 2", c.K())
	}
}

func TestMinCoverInfeasibleWrap(t *testing.T) {
	// Stride far above M and offsets spread so that no zero-cost wrap
	// exists: every path's wrap distance is offset(head)+stride-offset(tail)
	// with stride=9, offsets in {0,5}: possible wraps 9, 4, 14 — all > 1.
	pat := model.Pattern{Array: "A", Stride: 9, Offsets: []int{0, 5}}
	dg := distgraph.MustBuild(pat, 1)
	if got := bruteMinZeroCover(dg, true); got != -1 {
		t.Fatalf("expected infeasible, brute force found %d", got)
	}
	c := MinCover(dg, true, nil)
	if c.ZeroCost {
		t.Fatal("MinCover should report infeasibility via ZeroCost=false")
	}
	if !c.Exact {
		t.Fatal("completed search should prove infeasibility")
	}
	validateCover(t, dg, c.Paths)
}

func TestMinCoverNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pat := randomPattern(rng, 24, 6, 2)
	dg := distgraph.MustBuild(pat, 1)
	// A budget of 1 forces immediate truncation; the result must still
	// be a valid cover (greedy or fallback).
	c := MinCover(dg, true, &Options{NodeBudget: 1})
	validateCover(t, dg, c.Paths)
	full := MinCover(dg, true, nil)
	validateCover(t, dg, full.Paths)
	if full.ZeroCost && c.ZeroCost && full.K() > c.K() {
		t.Fatalf("full search (%d) worse than truncated (%d)", full.K(), c.K())
	}
}

func TestMinCoverLargePatternTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 5; trial++ {
		pat := randomPattern(rng, 50, 8, 1)
		dg := distgraph.MustBuild(pat, 1)
		c := MinCover(dg, true, nil)
		validateCover(t, dg, c.Paths)
		if c.ZeroCost && c.K() < LowerBound(dg) {
			t.Fatalf("K~ %d below lower bound %d", c.K(), LowerBound(dg))
		}
	}
}

func TestHopcroftKarpKnownCases(t *testing.T) {
	// rows builds a bit-matrix bipartite graph with one row per left
	// node listing its right neighbours.
	rows := func(adj ...[]int) bipartite {
		g := bipartite{n: len(adj), words: 1, rows: make([]uint64, len(adj))}
		for u, targets := range adj {
			for _, v := range targets {
				g.rows[u] |= 1 << v
			}
		}
		return g
	}
	// Perfect matching on K_{3,3}.
	g := rows([]int{0, 1, 2}, []int{0, 1, 2}, []int{0, 1, 2})
	if _, _, size := hopcroftKarp(g); size != 3 {
		t.Fatalf("K33 matching = %d, want 3", size)
	}
	// Augmenting-path case: naive greedy (0-0, then 1 stuck) would find 1.
	g = rows([]int{0, 1}, []int{0})
	matchL, matchR, size := hopcroftKarp(g)
	if size != 2 {
		t.Fatalf("matching = %d, want 2", size)
	}
	if matchL[1] != 0 || matchR[1] != 0 {
		t.Fatalf("expected 1-0 and 0-1: matchL=%v matchR=%v", matchL, matchR)
	}
	// Empty graph.
	g = rows(nil, nil)
	if _, _, size := hopcroftKarp(g); size != 0 {
		t.Fatal("empty graph should have empty matching")
	}
}

func TestSingleAccessPattern(t *testing.T) {
	pat := model.NewPattern(3)
	dg := distgraph.MustBuild(pat, 1)
	c := MinCover(dg, false, nil)
	if c.K() != 1 {
		t.Fatalf("single access K~ = %d", c.K())
	}
	cw := MinCover(dg, true, nil)
	if cw.K() != 1 || !cw.ZeroCost {
		t.Fatalf("single access wrap cover = %+v", cw)
	}
}

func TestMonotoneDecreasingPattern(t *testing.T) {
	// Offsets descending by 1: a single register post-decrementing
	// covers everything intra-iteration.
	pat := model.NewPattern(5, 4, 3, 2, 1, 0)
	dg := distgraph.MustBuild(pat, 1)
	c := MinCover(dg, false, nil)
	if c.K() != 1 {
		t.Fatalf("descending pattern K~ = %d, want 1", c.K())
	}
	// With wrap: tail 0 -> head 5 next iteration distance 5+1-0 = 6;
	// single path is not wrap-zero, more registers are needed.
	cw := MinCover(dg, true, nil)
	if cw.ZeroCost && cw.K() == 1 {
		t.Fatal("wrap cover of descending pattern cannot be one register")
	}
}

// TestMinCoverCtxCancellation checks the cooperative-cancellation
// contract of MinCoverCtx: a pre-canceled context aborts before any
// work, and a context canceled mid-search unwinds with its error
// instead of running the full branch-and-bound.
func TestMinCoverCtxCancellation(t *testing.T) {
	// A stride above M leaves no singleton path wrap-free. On this
	// pattern the assignment bound neither proves infeasibility nor
	// meets a cover, so the search spends its whole node budget.
	offs := []int{3, 4, 1, -3, -1, -1, 4, 3, -3, 4, 4, -4, 4, 3, -3, -1, 2, 2, -3, -2, 0, 1}
	pat := model.Pattern{Array: "A", Stride: 3, Offsets: offs}
	dg := distgraph.MustBuild(pat, 2)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinCoverCtx(pre, dg, true, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v, want context.Canceled", err)
	}

	mid, cancelMid := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancelMid()
	}()
	start := time.Now()
	_, err := MinCoverCtx(mid, dg, true, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-search cancel: err = %v, want context.Canceled", err)
	}
	// The uncancelled search exhausts its 2M-node budget (tens of
	// milliseconds); the canceled one must unwind within the ctx poll
	// granularity of a few hundred nodes.
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("canceled search took %v, want prompt unwind", d)
	}

	// A Background context must leave results byte-identical to
	// MinCover (the check never alters the explored tree).
	got, err := MinCoverCtx(context.Background(), dg, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := MinCover(dg, true, nil); !coversEqual(got, want) {
		t.Fatalf("ctx search diverged from MinCover:\nctx  %+v\nplain %+v", got, want)
	}
}
