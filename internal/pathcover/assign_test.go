package pathcover

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
)

// assignmentBound runs the assignment bound from a fresh matching.
func assignmentBound(dg *distgraph.Graph) (int, bool) {
	matchL, matchR, _ := hopcroftKarp(intraBipartite(dg))
	var a assigner
	cost, ok, _ := a.bound(dg, matchL, matchR, nil)
	return cost, ok
}

// bruteAssignment enumerates every permutation succ of the accesses
// and returns the cheapest perfect assignment's cost (a later access
// at zero intra cost costs 0, an access no later than itself at zero
// wrap cost costs 1), or -1 if none exists. It is the oracle for the
// Hungarian search, independent of matchings and potentials.
func bruteAssignment(dg *distgraph.Graph) int {
	n := dg.N()
	best := -1
	used := make([]bool, n)
	var rec func(u, cost int)
	rec = func(u, cost int) {
		if best != -1 && cost >= best {
			return
		}
		if u == n {
			best = cost
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			c := -1
			switch {
			case v > u && dg.ZeroIntra(u, v):
				c = 0
			case v <= u && dg.ZeroWrap(u, v):
				c = 1
			}
			if c < 0 {
				continue
			}
			used[v] = true
			rec(u+1, cost+c)
			used[v] = false
		}
	}
	rec(0, 0)
	return best
}

// The assignment bound is the exact optimum of its relaxation, never
// above the brute-force K~, never below the matching bound, and it
// reports infeasibility only when brute force finds no zero-cost wrap
// cover either.
func TestAssignBoundOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(4001))
	infeasible := 0
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(9)
		spread := 1 + rng.Intn(5)
		offs := make([]int, n)
		for i := range offs {
			offs[i] = rng.Intn(2*spread+1) - spread
		}
		pat := model.Pattern{Array: "A", Stride: 1 + rng.Intn(4), Offsets: offs}
		var index []int
		if trial%4 == 0 {
			index = []int{2 + rng.Intn(4)}
		}
		dg, err := distgraph.BuildIndexed(pat, rng.Intn(3), index)
		if err != nil {
			t.Fatal(err)
		}
		bound, ok := assignmentBound(dg)
		brute := bruteMinZeroCover(dg, true)
		if !ok {
			infeasible++
			if brute != -1 {
				t.Fatalf("%v M=%d index=%v: bound says infeasible, brute force found K~=%d", pat, dg.M, index, brute)
			}
			if n <= 7 && bruteAssignment(dg) != -1 {
				t.Fatalf("%v M=%d index=%v: a perfect assignment exists", pat, dg.M, index)
			}
			continue
		}
		if brute != -1 && bound > brute {
			t.Fatalf("%v M=%d index=%v: bound %d above K~ %d", pat, dg.M, index, bound, brute)
		}
		if lb := LowerBound(dg); bound < lb {
			t.Fatalf("%v M=%d index=%v: bound %d below the matching bound %d", pat, dg.M, index, bound, lb)
		}
		if n <= 7 {
			if want := bruteAssignment(dg); bound != want {
				t.Fatalf("%v M=%d index=%v: bound %d, cheapest assignment %d", pat, dg.M, index, bound, want)
			}
		}
	}
	if infeasible == 0 {
		t.Fatal("no infeasible pattern drawn; the infeasibility branch went untested")
	}
}

// The two served cold-solve patterns whose searches used to spend the
// whole node budget: the assignment bound reads 5, the greedy-seeded
// search meets it within a few nodes, and the cover is the one the
// truncated search returned.
func TestAssignBoundEndsServedSearches(t *testing.T) {
	for _, tc := range []struct {
		offs  []int
		paths []model.Path
	}{
		{
			offs:  []int{3, 5, 3, 4, 4, 2, 1, 3, 2, 4, 4, 2, 1, -1, -3, -5},
			paths: []model.Path{{0, 1, 2, 3, 4, 5, 7, 8, 9, 10}, {6, 11, 12}, {13}, {14}, {15}},
		},
		{
			offs:  []int{4, 2, 0, 0, 0, 2, 0, -1, 0, -2, -1, -2, -2, -2, -4, -4},
			paths: []model.Path{{0}, {1, 5}, {2, 3, 4, 6, 7, 8, 10}, {9, 11, 12, 13}, {14, 15}},
		},
	} {
		dg := distgraph.MustBuild(model.NewPattern(tc.offs...), 2)
		if bound, ok := assignmentBound(dg); !ok || bound != 5 {
			t.Fatalf("%v: assignment bound = %d, %v; want 5", tc.offs, bound, ok)
		}
		c := MinCover(dg, true, nil)
		if !c.Exact || !c.ZeroCost || c.K() != 5 {
			t.Fatalf("%v: cover exact=%v zeroCost=%v K~=%d, want exact zero-cost K~=5", tc.offs, c.Exact, c.ZeroCost, c.K())
		}
		if !reflect.DeepEqual(c.Paths, tc.paths) {
			t.Fatalf("%v: paths %v, want %v", tc.offs, c.Paths, tc.paths)
		}
		if c.Nodes > 100 {
			t.Fatalf("%v: search took %d nodes, want it to stop at the bound", tc.offs, c.Nodes)
		}
	}
}

// MinCostCover abandons a solve that runs ~3 s on a 2-vCPU host
// (N=4096 accesses that phase 1 leaves on 2,518 paths, merged down to
// two registers) within milliseconds of its deadline, from inside the
// augmentations rather than after them; one register, the access
// order itself, is answered at once.
func TestMinCostCoverDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	offs := make([]int, model.MaxAccesses)
	for i := range offs {
		offs[i] = rng.Intn(4000)
	}
	dg := distgraph.MustBuild(model.NewPattern(offs...), 0)
	order := 0 // the cost of the access order
	for i := 1; i < len(offs); i++ {
		order += model.TransitionCost(offs[i]-offs[i-1], 0)
	}
	var sc Scratch
	for _, c := range []struct {
		k      int
		budget time.Duration
		want   error
	}{{1, time.Second, nil}, {2, 0, context.DeadlineExceeded}, {2, 20 * time.Millisecond, context.DeadlineExceeded}} {
		ctx, cancel := context.WithTimeout(context.Background(), c.budget)
		start := time.Now()
		paths, cost, err := MinCostCover(ctx, dg, c.k, &sc)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, c.want) {
			t.Fatalf("k=%d budget %v: err = %v, want %v", c.k, c.budget, err, c.want)
		}
		if c.want == nil && (len(paths) != 1 || cost != order) {
			t.Fatalf("k=1: %d paths at cost %d, want the access order at cost %d", len(paths), cost, order)
		}
		if late := elapsed - c.budget; c.want != nil && late > 100*time.Millisecond {
			t.Fatalf("k=%d budget %v: returned %v after the deadline", c.k, c.budget, late)
		}
		t.Logf("k=%d budget %v: returned after %v", c.k, c.budget, elapsed)
	}
}
