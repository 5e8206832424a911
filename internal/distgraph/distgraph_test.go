package distgraph

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dspaddr/internal/model"
	"dspaddr/internal/workload"
)

// fig1Edges is the exact edge set of the paper's Figure 1 (0-based):
// the zero-cost relations of the example pattern (1,0,2,-1,1,0,-2)
// under M=1.
var fig1Edges = [][2]int{
	{0, 1}, {0, 2}, {0, 4}, {0, 5},
	{1, 3}, {1, 4}, {1, 5},
	{2, 4},
	{3, 5}, {3, 6},
	{4, 5},
}

func TestFigure1EdgeSet(t *testing.T) {
	dg := MustBuild(model.PaperExample(), 1)
	if got := dg.Edges(); !reflect.DeepEqual(got, fig1Edges) {
		t.Fatalf("Figure 1 edges =\n%v\nwant\n%v", got, fig1Edges)
	}
	if dg.EdgeCount() != len(fig1Edges) {
		t.Fatalf("EdgeCount = %d, want %d", dg.EdgeCount(), len(fig1Edges))
	}
	if !dg.Digraph().IsDAG() {
		t.Fatal("distance graph must be a DAG")
	}
}

func TestPaperExamplePath(t *testing.T) {
	dg := MustBuild(model.PaperExample(), 1)
	// The paper: subsequence (a1,a3,a5,a6) is a path in G.
	p := model.Path{0, 2, 4, 5}
	if !dg.Digraph().IsPath([]int(p)) {
		t.Fatal("(a1,a3,a5,a6) should be a path in Figure 1")
	}
	if !dg.PathIsZeroCost(p, false) {
		t.Fatal("(a1,a3,a5,a6) should be zero-cost intra-iteration")
	}
	// Its wrap transition has distance 2 > M.
	if dg.PathIsZeroCost(p, true) {
		t.Fatal("(a1,a3,a5,a6) should not be zero-cost with wrap")
	}
}

func TestZeroIntraMatchesCostModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(15)
		offs := make([]int, n)
		for i := range offs {
			offs[i] = rng.Intn(17) - 8
		}
		pat := model.Pattern{Array: "A", Stride: 1, Offsets: offs}
		m := rng.Intn(4)
		dg := MustBuild(pat, m)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := model.TransitionCost(pat.Distance(i, j), m) == 0
				if got := dg.ZeroIntra(i, j); got != want {
					t.Fatalf("ZeroIntra(%d,%d) = %v, want %v (pattern %v M=%d)", i, j, got, want, pat, m)
				}
			}
		}
	}
}

func TestZeroWrap(t *testing.T) {
	dg := MustBuild(model.PaperExample(), 1)
	// a7 -> a7: distance -2+1-(-2) = 1, zero-cost.
	if !dg.ZeroWrap(6, 6) {
		t.Fatal("a7 self wrap should be zero-cost")
	}
	// a6 -> a1: distance 1+1-0 = 2 > 1.
	if dg.ZeroWrap(5, 0) {
		t.Fatal("a6->a1 wrap should cost")
	}
}

func TestCoverIsZeroCost(t *testing.T) {
	dg := MustBuild(model.PaperExample(), 1)
	a := model.Assignment{Paths: []model.Path{{0, 2, 4, 5}, {1, 3, 6}}}
	if !dg.CoverIsZeroCost(a, false) {
		t.Fatal("two-path cover should be zero-cost intra-iteration")
	}
	if dg.CoverIsZeroCost(a, true) {
		t.Fatal("two-path cover should have wrap costs")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(model.Pattern{}, 1); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := Build(model.PaperExample(), -1); err == nil {
		t.Fatal("negative M accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on bad input")
		}
	}()
	MustBuild(model.Pattern{}, 1)
}

func TestNodeLabel(t *testing.T) {
	pat := model.PaperExample()
	tests := []struct {
		i    int
		want string
	}{
		{0, "a1: A[i+1]"},
		{1, "a2: A[i]"},
		{3, "a4: A[i-1]"},
	}
	for _, tt := range tests {
		if got := NodeLabel(pat, tt.i); got != tt.want {
			t.Errorf("NodeLabel(%d) = %q, want %q", tt.i, got, tt.want)
		}
	}
	anon := model.Pattern{Stride: 1, Offsets: []int{0}}
	if got := NodeLabel(anon, 0); got != "a1: A[i]" {
		t.Errorf("anon label = %q", got)
	}
}

func TestDOTContainsAllNodes(t *testing.T) {
	dg := MustBuild(model.PaperExample(), 1)
	dot := dg.DOT("fig1")
	for _, want := range []string{"a1: A[i+1]", "a7: A[i-2]", "n0 -> n1", "digraph fig1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestLargerModifyRangeAddsEdges(t *testing.T) {
	pat := model.PaperExample()
	e1 := MustBuild(pat, 1).EdgeCount()
	e2 := MustBuild(pat, 2).EdgeCount()
	e4 := MustBuild(pat, 4).EdgeCount()
	if !(e1 < e2 && e2 < e4) {
		t.Fatalf("edge counts should grow with M: %d %d %d", e1, e2, e4)
	}
	// M large enough connects every forward pair: n*(n-1)/2 edges.
	if e4 != 21 {
		t.Fatalf("M=4 should give complete forward graph, got %d edges", e4)
	}
}

// The window-built bit matrices hold exactly the pairs the cost
// predicates accept: Succ the later accesses ZeroIntra reaches, FillWrap
// the no-later accesses ZeroWrap reaches. Index values, negative and
// zero strides, and offsets too large for the window build (filled pair
// by pair) are all covered.
func TestBitMatricesMatchPredicates(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const huge = 1 << 62
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(140)
		spread := 1 + rng.Intn(12)
		offs := make([]int, n)
		for i := range offs {
			offs[i] = rng.Intn(2*spread+1) - spread
			if trial%10 == 9 && rng.Intn(8) == 0 {
				offs[i] += huge
			}
		}
		var index []int
		if trial%3 == 0 {
			index = []int{rng.Intn(9) - 4, 3 + rng.Intn(6)}
		}
		pat := model.Pattern{Array: "A", Stride: rng.Intn(9) - 3, Offsets: offs}
		dg, err := BuildIndexed(pat, rng.Intn(4), index)
		if err != nil {
			t.Fatal(err)
		}
		w := dg.Words()
		succ, wrap := dg.Succ(), dg.FillWrap(nil)
		for i := 0; i < n; i++ {
			last := -1
			for j := 0; j < n; j++ {
				bit := func(m []uint64) bool { return m[i*w+j/64]&(1<<(j%64)) != 0 }
				wantIntra := j > i && dg.ZeroIntra(i, j)
				if got := bit(succ); got != wantIntra {
					t.Fatalf("trial %d: Succ(%d,%d) = %v, want %v (%v M=%d index=%v)", trial, i, j, got, wantIntra, pat, dg.M, index)
				}
				if wantIntra {
					last = j
				}
				if got, want := bit(wrap), j <= i && dg.ZeroWrap(i, j); got != want {
					t.Fatalf("trial %d: wrap(%d,%d) = %v, want %v (%v M=%d index=%v)", trial, i, j, got, want, pat, dg.M, index)
				}
			}
			if got := dg.LastSucc(i); got != last {
				t.Fatalf("trial %d: LastSucc(%d) = %d, want %d", trial, i, got, last)
			}
		}
	}
}

// TestSortAccessesOrder checks the packed-key sort against the
// comparator order (offset, then index) on random patterns, at the
// largest N, and on spans too wide to pack, which take the fallback.
func TestSortAccessesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var dg Graph
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		if trial%50 == 0 {
			n = model.MaxAccesses
		}
		offs := make([]int, n)
		spread := []int{1, 8, 1 << 20, 1 << 52, 1 << 60}[trial%5]
		for i := range offs {
			offs[i] = rng.Intn(2*spread+1) - spread
		}
		if err := dg.Rebuild(model.Pattern{Stride: 1, Offsets: offs}, 1); err != nil {
			t.Fatal(err)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return offs[want[a]] < offs[want[b]] })
		if !slices.Equal(dg.order, want) {
			t.Fatalf("trial %d (N=%d, spread %d): order %v, want %v", trial, n, spread, dg.order, want)
		}
	}
}

// BenchmarkRebuild times one in-place rebuild of a random pattern of
// the cold-solve sizes (N 32–64, M 1–2), cycling through 64 patterns.
func BenchmarkRebuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pats := make([]model.Pattern, 64)
	for i := range pats {
		p, err := workload.RandomPattern(rng, workload.RandomParams{N: 32 + rng.Intn(33), OffsetRange: 4 + rng.Intn(8), Dist: workload.Distribution(rng.Intn(3))})
		if err != nil {
			b.Fatal(err)
		}
		pats[i] = p
	}
	var dg Graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dg.Rebuild(pats[i%len(pats)], 1+i%2); err != nil {
			b.Fatal(err)
		}
	}
}
