package merge

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
	"dspaddr/internal/pathcover"
)

// optimal runs the Optimal strategy from the phase-1 cover and returns
// its assignment and cost.
func optimal(t *testing.T, pat model.Pattern, m, k int) (model.Assignment, int) {
	t.Helper()
	a, err := Reduce(Optimal{}, initialCover(t, pat, m, false), pat, m, false, k)
	if err != nil {
		t.Fatal(err)
	}
	return a, a.Cost(pat, m, false)
}

// The exact solve equals the exhaustive optimum on small instances,
// returns a valid assignment within the register budget, and the cost
// the solver reports equals the assignment's recount.
func TestOptimalMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(9)
		pat := randomPattern(rng, n, 5, 1+rng.Intn(3))
		m := rng.Intn(3)
		k := 1 + rng.Intn(4)
		paths, reported, err := pathcover.MinCostCover(t.Context(), distgraph.MustBuild(pat, m), k, nil)
		if err != nil {
			t.Fatal(err)
		}
		a := model.Assignment{Paths: paths}
		if err := a.Validate(pat); err != nil {
			t.Fatalf("assignment invalid: %v (pattern %v M=%d K=%d)", err, pat, m, k)
		}
		if a.Registers() > min(k, n) {
			t.Fatalf("used %d registers, limit %d (pattern %v M=%d K=%d)", a.Registers(), min(k, n), pat, m, k)
		}
		got := a.Cost(pat, m, false)
		if reported != got {
			t.Fatalf("reported cost %d != assignment cost %d (pattern %v M=%d K=%d)", reported, got, pat, m, k)
		}
		if _, want := ExhaustiveOptimal(pat, m, false, k); got != want {
			t.Fatalf("cost %d != exhaustive %d (pattern %v M=%d K=%d)", got, want, pat, m, k)
		}
	}
}

// At sweep sizes the cost curve over k is non-increasing and convex
// (each augmentation costs at least as much as the one before), and
// never above the paper's greedy merge or the annealer.
func TestOptimalCostCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for _, n := range []int{30, 50, 100} {
		pat := randomPattern(rng, n, 8, 1)
		m := 1
		paths := initialCover(t, pat, m, false)
		var curve []int
		for k := 1; k <= len(paths); k++ {
			a, cost := optimal(t, pat, m, k)
			if a.Registers() > k {
				t.Fatalf("N=%d K=%d: %d registers", n, k, a.Registers())
			}
			g, err := Reduce(Greedy{}, paths, pat, m, false, k)
			if err != nil {
				t.Fatal(err)
			}
			if gc := g.Cost(pat, m, false); cost > gc {
				t.Fatalf("N=%d K=%d: exact %d above greedy %d", n, k, cost, gc)
			}
			if k <= 4 {
				sa := Anneal(paths, pat, m, false, k, rand.New(rand.NewSource(int64(n+k))), &AnnealOptions{Steps: 3000})
				if sc := sa.Cost(pat, m, false); cost > sc {
					t.Fatalf("N=%d K=%d: exact %d above anneal %d", n, k, cost, sc)
				}
			}
			curve = append(curve, cost)
		}
		if last := curve[len(curve)-1]; last != 0 {
			t.Fatalf("N=%d: cost %d at K=K~, want 0", n, last)
		}
		for k := 1; k+1 < len(curve); k++ {
			if curve[k] > curve[k-1] {
				t.Fatalf("N=%d: cost rises from K=%d to K=%d: %v", n, k, k+1, curve)
			}
			if curve[k-1]-curve[k] < curve[k]-curve[k+1] {
				t.Fatalf("N=%d: cost curve not convex at K=%d: %v", n, k+1, curve)
			}
		}
	}
}

// Register tails far apart in value: the exact solve keeps two paths
// at the exhaustive optimum, cost 4.
func TestOptimalWideOffsets(t *testing.T) {
	pat := model.NewPattern(0, 65536, 131072, 0, 65536, 131072, 0, 65536, 131072)
	a, cost := optimal(t, pat, 1, 2)
	if _, want := ExhaustiveOptimal(pat, 1, false, 2); cost != want || want != 4 {
		t.Fatalf("cost %d, exhaustive %d, want 4", cost, want)
	}
	if a.Registers() != 2 {
		t.Fatalf("registers = %d, want 2", a.Registers())
	}
}

func TestOptimalPaperExample(t *testing.T) {
	pat := model.PaperExample()
	if _, cost2 := optimal(t, pat, 1, 2); cost2 != 0 {
		t.Fatalf("K=2 optimal = %d, want 0 (the paper's zero-cost allocation)", cost2)
	}
	if _, cost1 := optimal(t, pat, 1, 1); cost1 == 0 {
		t.Fatal("K=1 cannot be zero-cost (a2->a3 distance 2)")
	}
}

func TestOptimalDegenerate(t *testing.T) {
	a, cost := optimal(t, model.NewPattern(3), 1, 4)
	if cost != 0 || a.Registers() != 1 {
		t.Fatalf("single access: cost %d registers %d", cost, a.Registers())
	}
	// A budget above N keeps the zero-cost cover; one below 1 means 1.
	pat := model.NewPattern(0, 5, 10)
	if a, cost := optimal(t, pat, 1, 4); cost != 0 || a.Registers() != 3 {
		t.Fatalf("K > N: cost %d registers %d", cost, a.Registers())
	}
	paths, cost, err := pathcover.MinCostCover(t.Context(), distgraph.MustBuild(pat, 1), 0, nil)
	if err != nil || len(paths) != 1 || cost != 2 {
		t.Fatalf("K=0: paths %v cost %d err %v, want one path at cost 2", paths, cost, err)
	}
}

func TestOptimalStrategy(t *testing.T) {
	pat := model.PaperExample()
	paths := initialCover(t, pat, 1, false)
	a, err := Reduce(Optimal{}, paths, pat, 1, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, want := ExhaustiveOptimal(pat, 1, false, 1)
	if got := a.Cost(pat, 1, false); got != want {
		t.Fatalf("optimal strategy cost %d, exhaustive %d", got, want)
	}
	if (Optimal{}).Name() != "optimal" {
		t.Fatal("name wrong")
	}
	// Wrap falls back to greedy: the same assignment.
	aw, err := Reduce(Optimal{}, paths, pat, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Reduce(Greedy{}, paths, pat, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !samePaths(aw.Paths, ag.Paths) {
		t.Fatalf("wrap fallback %v, greedy %v", aw.Paths, ag.Paths)
	}
	// A canceled context abandons the exact solve.
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := ReduceContext(ctx, Optimal{}, paths, pat, 1, false, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled solve: err = %v, want context.Canceled", err)
	}
}
