package experiments

import (
	"strings"
	"testing"

	"dspaddr/internal/model"
	"dspaddr/internal/workload"
)

func TestFig1MatchesPaper(t *testing.T) {
	r, err := RunFig1()
	if err != nil {
		t.Fatal(err)
	}
	if r.KTilde != 2 {
		t.Fatalf("K~ = %d, want 2", r.KTilde)
	}
	if len(r.Edges) != 11 {
		t.Fatalf("Figure 1 has %d edges, want 11", len(r.Edges))
	}
	// Spot-check paper-visible relations: a1->a2 and a4->a7 are
	// zero-cost; a2->a3 (distance 2) must be absent.
	has := func(u, v int) bool {
		for _, e := range r.Edges {
			if e[0] == u && e[1] == v {
				return true
			}
		}
		return false
	}
	if !has(1, 2) || !has(4, 7) || has(2, 3) {
		t.Fatalf("edge set wrong: %v", r.Edges)
	}
	if !strings.Contains(r.DOT, "digraph figure1") {
		t.Error("DOT output malformed")
	}
	if tbl := r.Table().String(); !strings.Contains(tbl, "K~=2") {
		t.Errorf("table missing K~:\n%s", tbl)
	}
}

func TestE2ReproducesPaperShape(t *testing.T) {
	p := DefaultE2Params()
	p.Trials = 30 // keep the test fast; the bench runs the full sweep
	r, err := RunE2(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != len(p.Ns)*len(p.Ms)*len(p.Ks) {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	// The paper's headline: about 40% average reduction. Demand the
	// qualitative band with the reduced trial count.
	if r.GrandReduction < 25 || r.GrandReduction > 60 {
		t.Fatalf("grand reduction %.1f%% outside the paper's ballpark", r.GrandReduction)
	}
	for _, c := range r.Cells {
		if c.MeanGreedy > c.MeanNaive {
			t.Fatalf("greedy (%.2f) worse than naive (%.2f) at N=%d M=%d K=%d",
				c.MeanGreedy, c.MeanNaive, c.N, c.M, c.K)
		}
		if c.MeanKTilde <= 0 {
			t.Fatalf("mean K~ = %f", c.MeanKTilde)
		}
	}
	tbl := r.Table().String()
	if !strings.Contains(tbl, "reduction %") {
		t.Errorf("table malformed:\n%s", tbl)
	}
}

func TestE2Validation(t *testing.T) {
	p := DefaultE2Params()
	p.Trials = 0
	if _, err := RunE2(p); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestE2Deterministic(t *testing.T) {
	p := DefaultE2Params()
	p.Trials = 5
	p.Ns = []int{10}
	p.Ms = []int{1}
	p.Ks = []int{2}
	r1, err := RunE2(p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunE2(p)
	if err != nil {
		t.Fatal(err)
	}
	if r1.GrandReduction != r2.GrandReduction {
		t.Fatal("same seed must reproduce the same sweep")
	}
}

func TestE3ReproducesPaperShape(t *testing.T) {
	r, err := RunE3(DefaultE3Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(workload.KernelNames()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.OptWords > row.NaiveWords {
			t.Fatalf("kernel %s: optimized code larger (%d > %d words)", row.Kernel, row.OptWords, row.NaiveWords)
		}
		if row.OptCycles >= row.NaiveCycles {
			t.Fatalf("kernel %s: optimized code not faster (%d >= %d cycles)", row.Kernel, row.OptCycles, row.NaiveCycles)
		}
	}
	// Paper shape: meaningful improvements, speed gains exceeding size
	// gains, bounded by the "up to 30% / 60%" flavour of the claim.
	if r.MeanSize < 10 || r.MaxSize < 25 {
		t.Fatalf("size improvements too small: mean %.1f max %.1f", r.MeanSize, r.MaxSize)
	}
	if r.MeanSpeed < 25 || r.MaxSpeed < 40 {
		t.Fatalf("speed improvements too small: mean %.1f max %.1f", r.MeanSpeed, r.MaxSpeed)
	}
	if r.MeanSpeed <= r.MeanSize {
		t.Fatalf("expected speed gains (%.1f%%) to exceed size gains (%.1f%%)", r.MeanSpeed, r.MeanSize)
	}
	if tbl := r.Table().String(); !strings.Contains(tbl, "conv5") {
		t.Errorf("table missing kernels:\n%s", tbl)
	}
}

func TestE3SelectedKernels(t *testing.T) {
	p := DefaultE3Params()
	p.Kernels = []string{"fir8", "stencil3"}
	r, err := RunE3(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	p.Kernels = []string{"nope"}
	if _, err := RunE3(p); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestE3FewRegistersStillCorrect(t *testing.T) {
	p := E3Params{Registers: 2, ModifyRange: 1}
	r, err := RunE3(p)
	if err != nil {
		t.Fatal(err)
	}
	// xcorr4 touches three arrays; RunE3 must bump its budget rather
	// than fail, and all rows must still verify (Verify runs inside).
	if len(r.Rows) != len(workload.KernelNames()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestA1BoundsOrdering(t *testing.T) {
	rows, err := RunA1([]int{8, 14}, []int{1, 2}, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanLB > r.MeanExact || r.MeanExact > r.MeanGreedy {
			t.Fatalf("bound ordering violated: LB %.2f exact %.2f greedy %.2f (N=%d M=%d)",
				r.MeanLB, r.MeanExact, r.MeanGreedy, r.N, r.M)
		}
		if r.AllExact < 100 {
			t.Fatalf("small instances should all be proven exact, got %.0f%%", r.AllExact)
		}
	}
	if tbl := A1Table(rows).String(); !strings.Contains(tbl, "mean exact K~") {
		t.Errorf("A1 table malformed:\n%s", tbl)
	}
}

func TestA2StrategyOrdering(t *testing.T) {
	rows, err := RunA2([]int{8, 12, 20}, 2, 1, 10, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The optimum is exact at every N: no strategy may beat it,
		// and every strategy's mean sits at or above it.
		for name, mean := range map[string]float64{
			"greedy": r.Greedy, "naive": r.Naive, "random": r.Random,
			"smallest-two": r.Smallest, "annealed": r.Annealed,
		} {
			if mean < r.Optimal-1e-9 {
				t.Fatalf("%s %.2f beats the exact optimum %.2f at N=%d", name, mean, r.Optimal, r.N)
			}
		}
		if r.Annealed > r.Greedy+1e-9 {
			t.Fatalf("annealed %.2f worse than its greedy start %.2f", r.Annealed, r.Greedy)
		}
		if r.Greedy > r.Naive {
			t.Fatalf("greedy %.2f worse than naive %.2f on average", r.Greedy, r.Naive)
		}
	}
	tbl := A2Table(rows, 2, 1).String()
	if !strings.Contains(tbl, "annealed") {
		t.Errorf("A2 table malformed:\n%s", tbl)
	}
}

func TestA3AmpleRegistersWrapAwareWins(t *testing.T) {
	// With K at least as large as every pattern's wrap-aware K~,
	// phase 2 never merges and the wrap-aware objective reaches zero
	// hardware cost — it must not lose to the intra-only objective.
	rows, err := RunA3(24, 1, 20, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+len(workload.KernelNames()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.WrapAware > r.IntraOnly {
			t.Fatalf("%s: wrap-aware %.2f worse than intra-only %.2f despite ample registers",
				r.Workload, r.WrapAware, r.IntraOnly)
		}
	}
	if tbl := A3Table(rows, 24, 1).String(); !strings.Contains(tbl, "benefit %") {
		t.Errorf("A3 table malformed:\n%s", tbl)
	}
}

func TestA3TightRegistersMeasuresBothDirections(t *testing.T) {
	// Under a tight register budget the wrap-aware objective can lose:
	// phase 1 over-splits to keep wraps free and phase 2's forced
	// merging then pays more (fir8 is the canonical case — see
	// EXPERIMENTS.md). The run must still complete and report
	// consistent Benefit values.
	rows, err := RunA3(4, 1, 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	sawLoss := false
	for _, r := range rows {
		if r.IntraOnly > 0 {
			want := 100 * (r.IntraOnly - r.WrapAware) / r.IntraOnly
			if diff := r.Benefit - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s: Benefit %.2f inconsistent with costs", r.Workload, r.Benefit)
			}
		}
		if r.WrapAware > r.IntraOnly {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Log("no over-splitting loss observed at K=4 (acceptable, depends on seeds)")
	}
}

func TestA4HeuristicOrdering(t *testing.T) {
	rows, err := RunA4([]int{12, 24}, 6, 15, 17)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TieBreak < r.Optimal-1e-9 || r.Liao < r.Optimal-1e-9 {
			t.Fatalf("heuristic beats optimal: %+v", r)
		}
		if r.Liao > r.FirstUse {
			t.Fatalf("Liao %.2f worse than first-use %.2f on average", r.Liao, r.FirstUse)
		}
	}
	if _, err := RunA4([]int{5}, 9, 1, 1); err == nil {
		t.Fatal("excessive variable count accepted")
	}
	if tbl := A4Table(rows).String(); !strings.Contains(tbl, "tie-break") {
		t.Errorf("A4 table malformed:\n%s", tbl)
	}
}

func TestDefaultParamsSane(t *testing.T) {
	p2 := DefaultE2Params()
	if p2.Trials < 1 || len(p2.Ns) == 0 || len(p2.Ms) == 0 || len(p2.Ks) == 0 {
		t.Fatalf("bad E2 defaults: %+v", p2)
	}
	p3 := DefaultE3Params()
	if err := (model.AGUSpec{Registers: p3.Registers, ModifyRange: p3.ModifyRange}).Validate(); err != nil {
		t.Fatalf("bad E3 defaults: %v", err)
	}
}

func TestA5IndexRegistersHelp(t *testing.T) {
	rows, err := RunA5([]int{10, 20}, 2, 1, 15, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// More index registers never hurt (the optimizer keeps the
		// best configuration including the base model).
		if r.OneIdx > r.Base+1e-9 || r.TwoIdx > r.OneIdx+1e-9 {
			t.Fatalf("index registers hurt: base %.2f one %.2f two %.2f", r.Base, r.OneIdx, r.TwoIdx)
		}
	}
	// Clustered patterns have recurring large jumps, so the extension
	// must show a measurable aggregate win.
	total := 0.0
	for _, r := range rows {
		total += r.Red2
	}
	if total/float64(len(rows)) < 5 {
		t.Fatalf("mean reduction with 2 index registers only %.1f%%", total/float64(len(rows)))
	}
	if tbl := A5Table(rows, 2, 1).String(); !strings.Contains(tbl, "index reg") {
		t.Errorf("A5 table malformed:\n%s", tbl)
	}
}

func TestA6CircularBeatsShift(t *testing.T) {
	rows, err := RunA6([]int{2, 8, 16}, 24, 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	prevSpeed := -1.0
	for _, r := range rows {
		if r.CircCycles >= r.ShiftCycles {
			t.Fatalf("T=%d: circular %d cycles not faster than shift %d", r.Taps, r.CircCycles, r.ShiftCycles)
		}
		if r.CircWords >= r.ShiftWords {
			t.Fatalf("T=%d: circular %d words not smaller than shift %d", r.Taps, r.CircWords, r.ShiftWords)
		}
		// The benefit grows with the window size (the shift overhead is
		// linear in T).
		if r.SpeedImprovement < prevSpeed {
			t.Fatalf("speed improvement not monotone in taps: %v", rows)
		}
		prevSpeed = r.SpeedImprovement
	}
	if tbl := A6Table(rows, 24).String(); !strings.Contains(tbl, "modulo addressing") {
		t.Errorf("A6 table malformed:\n%s", tbl)
	}
}
