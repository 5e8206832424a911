package model

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPaperExample(t *testing.T) {
	p := PaperExample()
	want := []int{1, 0, 2, -1, 1, 0, -2}
	if !reflect.DeepEqual(p.Offsets, want) {
		t.Fatalf("PaperExample offsets = %v, want %v", p.Offsets, want)
	}
	if p.Stride != 1 {
		t.Fatalf("PaperExample stride = %d, want 1", p.Stride)
	}
	if p.N() != 7 {
		t.Fatalf("PaperExample N = %d, want 7", p.N())
	}
}

func TestPatternDistance(t *testing.T) {
	p := PaperExample()
	tests := []struct {
		i, j, want int
	}{
		{0, 1, -1}, // A[i+1] -> A[i]
		{0, 2, 1},  // A[i+1] -> A[i+2]
		{2, 3, -3}, // A[i+2] -> A[i-1]
		{3, 6, -1}, // A[i-1] -> A[i-2]
		{1, 1, 0},
	}
	for _, tt := range tests {
		if got := p.Distance(tt.i, tt.j); got != tt.want {
			t.Errorf("Distance(%d,%d) = %d, want %d", tt.i, tt.j, got, tt.want)
		}
	}
}

func TestPatternWrapDistance(t *testing.T) {
	p := PaperExample()
	// From a6 (offset 0) to a1 (offset 1) of the next iteration with
	// stride 1: distance 1+1-0 = 2.
	if got := p.WrapDistance(5, 0); got != 2 {
		t.Fatalf("WrapDistance(a6,a1) = %d, want 2", got)
	}
	// From a7 (offset -2) to a7 next iteration: -2+1-(-2) = 1.
	if got := p.WrapDistance(6, 6); got != 1 {
		t.Fatalf("WrapDistance(a7,a7) = %d, want 1", got)
	}
	p2 := Pattern{Stride: 4, Offsets: []int{0, 2}}
	if got := p2.WrapDistance(1, 0); got != 2 {
		t.Fatalf("WrapDistance stride-4 = %d, want 2", got)
	}
}

func TestTransitionCost(t *testing.T) {
	tests := []struct {
		d, m, want int
	}{
		{0, 0, 0}, {1, 0, 1}, {-1, 0, 1},
		{1, 1, 0}, {-1, 1, 0}, {2, 1, 1}, {-2, 1, 1},
		{3, 3, 0}, {4, 3, 1},
	}
	for _, tt := range tests {
		if got := TransitionCost(tt.d, tt.m); got != tt.want {
			t.Errorf("TransitionCost(%d,%d) = %d, want %d", tt.d, tt.m, got, tt.want)
		}
	}
}

func TestPatternValidate(t *testing.T) {
	if err := (Pattern{}).Validate(); err == nil {
		t.Fatal("empty pattern should not validate")
	}
	if err := PaperExample().Validate(); err != nil {
		t.Fatalf("paper example should validate: %v", err)
	}
	for _, tc := range []struct {
		n  int
		ok bool
	}{{MaxAccesses, true}, {MaxAccesses + 1, false}} {
		err := NewPattern(make([]int, tc.n)...).Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%d accesses: err = %v, want accepted = %v", tc.n, err, tc.ok)
		}
	}
}

func TestPatternString(t *testing.T) {
	got := PaperExample().String()
	want := "A: [+1 0 +2 -1 +1 0 -2] stride 1"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	anon := Pattern{Stride: 2, Offsets: []int{3}}
	if got := anon.String(); got != "<anon>: [+3] stride 2" {
		t.Fatalf("anon String() = %q", got)
	}
}

func TestOffsetSpanAndDistinct(t *testing.T) {
	p := PaperExample()
	min, max := p.OffsetSpan()
	if min != -2 || max != 2 {
		t.Fatalf("OffsetSpan = (%d,%d), want (-2,2)", min, max)
	}
	if got := p.DistinctOffsets(); !reflect.DeepEqual(got, []int{-2, -1, 0, 1, 2}) {
		t.Fatalf("DistinctOffsets = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OffsetSpan on empty pattern should panic")
		}
	}()
	Pattern{}.OffsetSpan()
}

func TestLoopSpec(t *testing.T) {
	l := LoopSpec{
		Var: "i", From: 2, To: 10, Stride: 1,
		Accesses: []Access{
			{Array: "A", Offset: 1},
			{Array: "B", Offset: 0},
			{Array: "A", Offset: -1},
		},
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := l.Iterations(); got != 9 {
		t.Fatalf("Iterations = %d, want 9", got)
	}
	if got := l.Arrays(); !reflect.DeepEqual(got, []string{"A", "B"}) {
		t.Fatalf("Arrays = %v", got)
	}
	pats, back := l.Patterns()
	if len(pats) != 2 {
		t.Fatalf("Patterns count = %d", len(pats))
	}
	if !reflect.DeepEqual(pats[0].Offsets, []int{1, -1}) {
		t.Fatalf("A offsets = %v", pats[0].Offsets)
	}
	if !reflect.DeepEqual(pats[1].Offsets, []int{0}) {
		t.Fatalf("B offsets = %v", pats[1].Offsets)
	}
	if !reflect.DeepEqual(back[0], []int{0, 2}) || !reflect.DeepEqual(back[1], []int{1}) {
		t.Fatalf("back maps = %v %v", back[0], back[1])
	}
}

func TestLoopSpecValidateErrors(t *testing.T) {
	if err := (LoopSpec{Stride: 0, Accesses: []Access{{}}}).Validate(); err == nil {
		t.Fatal("zero stride should fail")
	}
	if err := (LoopSpec{Stride: 1}).Validate(); err == nil {
		t.Fatal("no accesses should fail")
	}
}

func TestLoopSpecIterationsDegenerate(t *testing.T) {
	if got := (LoopSpec{From: 5, To: 4, Stride: 1}).Iterations(); got != 0 {
		t.Fatalf("empty range iterations = %d", got)
	}
	if got := (LoopSpec{From: 0, To: 10, Stride: 0}).Iterations(); got != 0 {
		t.Fatalf("zero stride iterations = %d", got)
	}
	if got := (LoopSpec{From: 0, To: 10, Stride: 3}).Iterations(); got != 4 {
		t.Fatalf("stride-3 iterations = %d, want 4", got)
	}
}

func TestAGUSpec(t *testing.T) {
	if err := (AGUSpec{Registers: 0, ModifyRange: 1}).Validate(); err == nil {
		t.Fatal("K=0 should fail")
	}
	if err := (AGUSpec{Registers: 1, ModifyRange: -1}).Validate(); err == nil {
		t.Fatal("M<0 should fail")
	}
	s := AGUSpec{Registers: 4, ModifyRange: 1}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := s.String(); got != "AGU{K=4, M=1}" {
		t.Fatalf("String = %q", got)
	}
}

func TestPathCostPaperPath(t *testing.T) {
	p := PaperExample()
	// The paper's example path (a1,a3,a5,a6) is zero-cost
	// intra-iteration with M=1 and its wrap transition costs 1.
	path := Path{0, 2, 4, 5}
	if got := path.Cost(p, 1, false); got != 0 {
		t.Fatalf("intra cost = %d, want 0", got)
	}
	if got := path.Cost(p, 1, true); got != 1 {
		t.Fatalf("wrap cost = %d, want 1", got)
	}
}

func TestPathMerge(t *testing.T) {
	// Paper example: (a1,a4,a6) ⊕ (a3,a5) = (a1,a3,a4,a5,a6).
	p1 := Path{0, 3, 5}
	p2 := Path{2, 4}
	got := p1.Merge(p2)
	want := Path{0, 2, 3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
	// Merge must be symmetric for disjoint paths.
	if got2 := p2.Merge(p1); !reflect.DeepEqual(got2, want) {
		t.Fatalf("reverse Merge = %v, want %v", got2, want)
	}
	if got := (Path{}).Merge(Path{1}); !reflect.DeepEqual(got, Path{1}) {
		t.Fatalf("empty merge = %v", got)
	}
}

func TestPathString(t *testing.T) {
	if got := (Path{0, 2, 4}).String(); got != "(a1,a3,a5)" {
		t.Fatalf("Path.String = %q", got)
	}
}

func TestPathIsOrdered(t *testing.T) {
	if !(Path{0, 1, 5}).IsOrdered() {
		t.Fatal("increasing path should be ordered")
	}
	if (Path{0, 0}).IsOrdered() {
		t.Fatal("duplicate should not be ordered")
	}
	if (Path{3, 1}).IsOrdered() {
		t.Fatal("decreasing should not be ordered")
	}
}

func TestAssignmentValidate(t *testing.T) {
	p := PaperExample()
	good := Assignment{Paths: []Path{{0, 2, 4, 5}, {1, 3, 6}}}
	if err := good.Validate(p); err != nil {
		t.Fatalf("good assignment rejected: %v", err)
	}
	bad := []Assignment{
		{Paths: []Path{{0, 2}, {1, 2, 3, 4, 5, 6}}}, // duplicate 2
		{Paths: []Path{{0, 1, 2, 3, 4, 5}}},         // missing 6
		{Paths: []Path{{0, 2, 1}, {3, 4, 5, 6}}},    // unordered
		{Paths: []Path{{}, {0, 1, 2, 3, 4, 5, 6}}},  // empty path
		{Paths: []Path{{0, 1, 2, 3, 4, 5, 7}}},      // out of range
	}
	for i, a := range bad {
		if err := a.Validate(p); err == nil {
			t.Errorf("bad assignment %d accepted", i)
		}
	}
}

func TestAssignmentCost(t *testing.T) {
	p := PaperExample()
	// R0=(a1,a3,a5,a6): zero intra cost. R1=(a2,a4,a7): 0->-1 (ok),
	// -1->-2 (ok): zero intra cost. Total zero with wrap off.
	a := Assignment{Paths: []Path{{0, 2, 4, 5}, {1, 3, 6}}}
	if got := a.Cost(p, 1, false); got != 0 {
		t.Fatalf("cost = %d, want 0", got)
	}
	// With wrap: R0 wrap 1+1-0=2 (cost 1); R1 wrap 0+1-(-2)=3 (cost 1).
	if got := a.Cost(p, 1, true); got != 2 {
		t.Fatalf("wrap cost = %d, want 2", got)
	}
}

func TestAssignmentRegisterOf(t *testing.T) {
	a := Assignment{Paths: []Path{{0, 2}, {1}}}
	got := a.RegisterOf(4)
	want := []int{0, 1, 0, -1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RegisterOf = %v, want %v", got, want)
	}
}

func TestAssignmentNormalizeCloneString(t *testing.T) {
	a := Assignment{Paths: []Path{{3, 4}, {0, 1}}}
	c := a.Clone()
	a.Normalize()
	if a.Paths[0][0] != 0 {
		t.Fatalf("Normalize did not sort: %v", a)
	}
	// Clone must be unaffected by mutation of the original.
	a.Paths[0][0] = 99
	if c.Paths[1][0] != 0 {
		t.Fatalf("Clone aliases original: %v", c)
	}
	if got := (Assignment{Paths: []Path{{0}, {1, 2}}}).String(); got != "R0=(a1) R1=(a2,a3)" {
		t.Fatalf("String = %q", got)
	}
}

func TestSingletonAssignment(t *testing.T) {
	p := PaperExample()
	a := SingletonAssignment(p.N())
	if err := a.Validate(p); err != nil {
		t.Fatalf("singleton invalid: %v", err)
	}
	if a.Registers() != 7 {
		t.Fatalf("Registers = %d", a.Registers())
	}
	if got := a.Cost(p, 1, false); got != 0 {
		t.Fatalf("singleton intra cost = %d, want 0", got)
	}
}

// Property: Merge preserves the multiset of indices and ordering.
func TestPathMergeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		// Build two disjoint ordered paths from raw.
		seen := map[int]bool{}
		var p, q Path
		for k, v := range raw {
			i := int(v)
			if seen[i] {
				continue
			}
			seen[i] = true
			if k%2 == 0 {
				p = append(p, i)
			} else {
				q = append(q, i)
			}
		}
		sortPath(p)
		sortPath(q)
		m := p.Merge(q)
		if len(m) != len(p)+len(q) {
			return false
		}
		if !m.IsOrdered() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: MergeCost equals Merge().Cost() and MergeInto equals Merge,
// for random disjoint paths over a random pattern, both objectives.
func TestPathMergeCostAndMergeIntoAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		n := 2 + rng.Intn(14)
		offs := make([]int, n)
		for i := range offs {
			offs[i] = rng.Intn(21) - 10
		}
		pat := Pattern{Array: "A", Stride: 1 + rng.Intn(3), Offsets: offs}
		var p, q Path
		for i := 0; i < n; i++ {
			switch rng.Intn(3) {
			case 0:
				p = append(p, i)
			case 1:
				q = append(q, i)
			}
		}
		m := rng.Intn(4)
		merged := p.Merge(q)
		for _, wrap := range []bool{false, true} {
			want := merged.Cost(pat, m, wrap)
			if got := p.MergeCost(q, pat, m, wrap); got != want {
				t.Fatalf("trial %d wrap=%v: MergeCost=%d, Merge().Cost()=%d (p=%v q=%v)", trial, wrap, got, want, p, q)
			}
			if got := q.MergeCost(p, pat, m, wrap); got != want {
				t.Fatalf("trial %d wrap=%v: MergeCost not symmetric: %d vs %d", trial, wrap, got, want)
			}
		}
		scratch := make(Path, 0, 4) // deliberately small: MergeInto must grow it
		if got := p.MergeInto(q, scratch); !reflect.DeepEqual([]int(got), []int(merged)) {
			t.Fatalf("trial %d: MergeInto=%v, Merge=%v", trial, got, merged)
		}
	}
}

// MergeInto recycles a sufficiently large destination buffer in place.
func TestPathMergeIntoReusesBuffer(t *testing.T) {
	p, q := Path{0, 3, 5}, Path{1, 4}
	dst := make(Path, 0, 8)
	out := p.MergeInto(q, dst)
	if !reflect.DeepEqual([]int(out), []int{0, 1, 3, 4, 5}) {
		t.Fatalf("MergeInto = %v", out)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("MergeInto allocated despite sufficient capacity")
	}
	if nilOut := p.MergeInto(q, nil); !reflect.DeepEqual([]int(nilOut), []int(out)) {
		t.Fatalf("MergeInto(nil dst) = %v", nilOut)
	}
	if empty := Path(nil).MergeInto(nil, dst); len(empty) != 0 {
		t.Fatalf("empty merge = %v", empty)
	}
}

func sortPath(p Path) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j] < p[j-1]; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// Property: Cost is never negative and bounded by the number of
// transitions considered.
func TestPathCostBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		offs := make([]int, n)
		for i := range offs {
			offs[i] = rng.Intn(21) - 10
		}
		pat := Pattern{Array: "A", Stride: 1 + rng.Intn(3), Offsets: offs}
		var path Path
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				path = append(path, i)
			}
		}
		if len(path) == 0 {
			path = Path{0}
		}
		m := rng.Intn(4)
		for _, wrap := range []bool{false, true} {
			c := path.Cost(pat, m, wrap)
			maxT := len(path) - 1
			if wrap {
				maxT++
			}
			if c < 0 || c > maxT {
				t.Fatalf("cost %d outside [0,%d] for path %v pattern %v", c, maxT, path, pat)
			}
		}
	}
}

func TestTransitionCostIndexed(t *testing.T) {
	tests := []struct {
		d, m  int
		index []int
		want  int
	}{
		{1, 1, nil, 0},
		{5, 1, nil, 1},
		{5, 1, []int{5}, 0},
		{-5, 1, []int{5}, 0},
		{5, 1, []int{-5}, 0},
		{4, 1, []int{5}, 1},
		{0, 0, []int{}, 0},
		{7, 0, []int{3, 7}, 0},
	}
	for _, tt := range tests {
		if got := TransitionCostIndexed(tt.d, tt.m, tt.index); got != tt.want {
			t.Errorf("TransitionCostIndexed(%d,%d,%v) = %d, want %d", tt.d, tt.m, tt.index, got, tt.want)
		}
	}
}

func TestPathCostIndexed(t *testing.T) {
	pat := NewPattern(0, 5, 0)
	p := Path{0, 1, 2}
	if got := p.CostIndexed(pat, 1, nil, false); got != 2 {
		t.Fatalf("base cost = %d, want 2", got)
	}
	if got := p.CostIndexed(pat, 1, []int{5}, false); got != 0 {
		t.Fatalf("indexed cost = %d, want 0", got)
	}
	// Wrap distance 0+1-0 = 1, free with M=1.
	if got := p.CostIndexed(pat, 1, []int{5}, true); got != 0 {
		t.Fatalf("wrap indexed cost = %d, want 0", got)
	}
	if got := (Path{}).CostIndexed(pat, 1, nil, true); got != 0 {
		t.Fatalf("empty path cost = %d", got)
	}
}

func TestAssignmentCostIndexed(t *testing.T) {
	pat := NewPattern(0, 9, 0, 9)
	a := Assignment{Paths: []Path{{0, 1}, {2, 3}}}
	if got := a.CostIndexed(pat, 1, nil, false); got != 2 {
		t.Fatalf("base = %d, want 2", got)
	}
	if got := a.CostIndexed(pat, 1, []int{9}, false); got != 0 {
		t.Fatalf("indexed = %d, want 0", got)
	}
}

func TestNormalizeWithEmptyPaths(t *testing.T) {
	// Normalize tolerates empty paths (sorting them first) even though
	// Validate rejects them; exercised for robustness.
	a := Assignment{Paths: []Path{{3}, {}, {1}}}
	a.Normalize()
	if len(a.Paths[0]) != 0 {
		t.Fatalf("empty path should sort first: %v", a.Paths)
	}
	if a.Paths[1][0] != 1 || a.Paths[2][0] != 3 {
		t.Fatalf("paths unsorted: %v", a.Paths)
	}
}
