// Package merge implements phase 2 of the paper's allocator: when the
// zero-cost cover needs more virtual registers K~ than the AGU has
// physical registers K, pairs of paths are merged — order-preservingly —
// until only K remain. The paper's heuristic always merges the pair
// whose merged path has minimal cost C(P_i ⊕ P_j); the paper's baseline
// ("naive") merges arbitrary pairs. Optimal is exact for the
// intra-iteration objective: it serves a minimum-cost matching of
// program-ordered arcs from pathcover.MinCostCover, and the greedy
// merge when wrap is set. Additional strategies (random,
// smallest-two, exhaustive optimal, simulated annealing) support the
// ablation experiments.
//
// Greedy is incremental: pair costs are computed once up front with
// the allocation-free model.Path.MergeCost, kept in a
// lazily-invalidated min-heap, and only the pairs involving the merged
// path are re-evaluated after each round — O(R²) cost evaluations
// amortized instead of the reference implementation's O(rounds·R²)
// with a materialized merged path per evaluation (see reference.go).
// SmallestTwo and Random keep their reference selection logic (an
// O(R) scan per round needs no index) but commit merges through a
// recycled scratch buffer. All strategies produce byte-identical
// assignments to their references; the differential tests in
// diff_test.go enforce that.
package merge

import (
	"context"
	"fmt"
	"math/rand"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
	"dspaddr/internal/obs"
	"dspaddr/internal/pathcover"
)

// Strategy reduces a path set to at most k paths. Implementations must
// return a valid partition and must not mutate the input paths. A
// register budget k below 1 is treated as 1 by every strategy.
type Strategy interface {
	// Name identifies the strategy in reports and tables.
	Name() string
	// Reduce merges paths until at most k remain.
	Reduce(paths []model.Path, pat model.Pattern, m int, wrap bool, k int) []model.Path
}

// pairItem is one candidate merge in the incremental heap: slots i < j
// with the cost and combined length of their merge, stamped with the
// slot versions it was computed against. An item whose stamped version
// lags a slot's current version is stale and discarded on extraction
// (lazy invalidation), so the heap never needs random-access deletes.
type pairItem struct {
	cost   int
	length int
	i, j   int
	vi, vj uint32
}

// less orders candidates exactly as the reference scan does: lower
// cost, then smaller combined length, then the lexicographically
// smallest pair. Slot order equals current-index order because merges
// keep the merged path in the lower slot and only tombstone the upper,
// preserving the relative order of survivors.
func (a pairItem) less(b pairItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.length != b.length {
		return a.length < b.length
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// lesser is the ordering constraint of minHeap.
type lesser[T any] interface{ less(T) bool }

// minHeap is a hand-rolled generic binary min-heap. It is concrete
// per element type (no container/heap interface boxing), so pushes
// and pops on the merge hot path stay allocation-free once the
// backing array has grown.
type minHeap[T lesser[T]] []T

func (h *minHeap[T]) push(it T) {
	*h = append(*h, it)
	s := *h
	for c := len(s) - 1; c > 0; {
		p := (c - 1) / 2
		if !s[c].less(s[p]) {
			break
		}
		s[c], s[p] = s[p], s[c]
		c = p
	}
}

func (h *minHeap[T]) pop() T {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for p := 0; ; {
		c := 2*p + 1
		if c >= len(s) {
			break
		}
		if c+1 < len(s) && s[c+1].less(s[c]) {
			c++
		}
		if !s[c].less(s[p]) {
			break
		}
		s[p], s[c] = s[c], s[p]
		p = c
	}
	return top
}

// heapify establishes the heap invariant over an unordered item slice
// in O(n), cheaper than n pushes for the initial all-pairs load.
func heapify[T lesser[T]](s minHeap[T]) {
	for p := len(s)/2 - 1; p >= 0; p-- {
		for c := 2*p + 1; c < len(s); {
			if c+1 < len(s) && s[c+1].less(s[c]) {
				c++
			}
			q := (c - 1) / 2
			if !s[c].less(s[q]) {
				break
			}
			s[q], s[c] = s[c], s[q]
			c = 2*c + 1
		}
	}
}

// Scratch is the reusable phase-2 workspace of the incremental
// strategies: slot headers and bookkeeping arrays, one path buffer per
// slot (each with capacity for the fully merged path, so MergeInto
// never grows mid-reduction) and the pair-cost heap's backing array.
// A worker serving a stream of requests reuses one Scratch across
// solves; the zero value is ready to use. Not safe for concurrent use.
// Reduced paths are always copied out of the scratch before being
// returned, so results never alias it.
type Scratch struct {
	state mergeState
	bufs  []model.Path
	heap  minHeap[pairItem]
	// dg and cover are Optimal's distance graph and assignment state.
	dg    distgraph.Graph
	cover pathcover.Scratch
}

// mergeState is the shared slot bookkeeping of the incremental
// strategies: paths live in stable slots, a merge folds the higher
// slot into the lower one (recycling the lower slot's old backing as
// the next scratch buffer) and bumps the lower slot's version so stale
// heap entries self-invalidate.
type mergeState struct {
	ps      []model.Path
	alive   []bool
	version []uint32
	live    int
	scratch model.Path
}

// init loads the input paths into the scratch's slot buffers. Every
// buffer is (re)grown to hold the total access count once, so all
// later MergeInto calls recycle in place.
func (sc *Scratch) init(paths []model.Path) *mergeState {
	r := len(paths)
	total := 0
	for _, p := range paths {
		total += len(p)
	}
	if cap(sc.bufs) >= r+1 {
		sc.bufs = sc.bufs[:r+1]
	} else {
		old := sc.bufs
		sc.bufs = make([]model.Path, r+1)
		copy(sc.bufs, old)
	}
	for i := range sc.bufs {
		if cap(sc.bufs[i]) < total {
			sc.bufs[i] = make(model.Path, 0, total)
		}
	}

	st := &sc.state
	if cap(st.ps) >= r {
		st.ps = st.ps[:r]
		st.alive = st.alive[:r]
		st.version = st.version[:r]
	} else {
		st.ps = make([]model.Path, r)
		st.alive = make([]bool, r)
		st.version = make([]uint32, r)
	}
	for i, p := range paths {
		st.ps[i] = append(sc.bufs[i][:0], p...)
		st.alive[i] = true
		st.version[i] = 0
	}
	st.live = r
	st.scratch = sc.bufs[r]
	return st
}

// reclaim gathers the slot buffers (rotated among ps and scratch by
// the merges) back into the scratch for the next reduction.
func (sc *Scratch) reclaim() {
	st := &sc.state
	for i, p := range st.ps {
		sc.bufs[i] = p[:0]
	}
	sc.bufs[len(st.ps)] = st.scratch[:0]
}

// merge commits the merge of slots i < j into slot i.
func (st *mergeState) merge(i, j int) {
	merged := st.ps[i].MergeInto(st.ps[j], st.scratch)
	st.scratch = st.ps[i]
	st.ps[i] = merged
	st.alive[j] = false
	st.version[i]++
	st.live--
}

// result copies the surviving paths — in slot order, which equals the
// order the reference's splice-based list would have — out of the
// scratch buffers into fresh storage owned by the caller.
func (st *mergeState) result() []model.Path {
	out := make([]model.Path, 0, st.live)
	for i, p := range st.ps {
		if st.alive[i] {
			out = append(out, p.Clone())
		}
	}
	return out
}

// Greedy is the paper's phase-2 heuristic: merge the pair with minimal
// merged-path cost each round (ties: smaller combined length, then
// lower pair index). This implementation is incremental: all pair
// costs are computed once, and after each merge only the pairs
// involving the merged path are re-evaluated.
type Greedy struct{}

// Name implements Strategy.
func (Greedy) Name() string { return "greedy" }

// Reduce implements Strategy.
func (Greedy) Reduce(paths []model.Path, pat model.Pattern, m int, wrap bool, k int) []model.Path {
	out, _ := greedyReduce(context.Background(), paths, pat, m, wrap, k, nil)
	return out
}

// greedyReduce is the incremental greedy reduction behind
// Greedy.Reduce and ReduceContext: identical selection logic, with all
// working storage drawn from sc (nil for a transient scratch) and a
// cancellation check per merge round. On cancellation it returns ctx's
// error; the partial reduction is discarded.
func greedyReduce(ctx context.Context, paths []model.Path, pat model.Pattern, m int, wrap bool, k int, sc *Scratch) ([]model.Path, error) {
	if k < 1 {
		k = 1
	}
	if sc == nil {
		sc = &Scratch{}
	}
	st := sc.init(paths)
	defer sc.reclaim()
	if st.live <= k || st.live <= 1 {
		return st.result(), nil
	}
	r := len(st.ps)
	h := sc.heap[:0]
	if need := r * (r - 1) / 2; cap(h) < need {
		h = make(minHeap[pairItem], 0, need)
	}
	for i := 0; i < r; i++ {
		if err := ctx.Err(); err != nil {
			sc.heap = h
			return nil, err
		}
		for j := i + 1; j < r; j++ {
			h = append(h, pairItem{
				cost:   st.ps[i].MergeCost(st.ps[j], pat, m, wrap),
				length: len(st.ps[i]) + len(st.ps[j]),
				i:      i,
				j:      j,
			})
		}
	}
	heapify(h)
	for st.live > k && st.live > 1 {
		if err := ctx.Err(); err != nil {
			sc.heap = h
			return nil, err
		}
		var it pairItem
		for {
			it = h.pop()
			if st.alive[it.i] && st.alive[it.j] &&
				st.version[it.i] == it.vi && st.version[it.j] == it.vj {
				break
			}
		}
		st.merge(it.i, it.j)
		for s := 0; s < r; s++ {
			if s == it.i || !st.alive[s] {
				continue
			}
			lo, hi := s, it.i
			if lo > hi {
				lo, hi = hi, lo
			}
			h.push(pairItem{
				cost:   st.ps[lo].MergeCost(st.ps[hi], pat, m, wrap),
				length: len(st.ps[lo]) + len(st.ps[hi]),
				i:      lo,
				j:      hi,
				vi:     st.version[lo],
				vj:     st.version[hi],
			})
		}
	}
	sc.heap = h
	return st.result(), nil
}

// Naive is the paper's comparison baseline: repetitively merge two
// arbitrary paths until the register constraint is met. This
// deterministic variant always merges the first two paths.
type Naive struct{}

// Name implements Strategy.
func (Naive) Name() string { return "naive" }

// Reduce implements Strategy.
func (Naive) Reduce(paths []model.Path, pat model.Pattern, m int, wrap bool, k int) []model.Path {
	if k < 1 {
		k = 1
	}
	var sc Scratch
	st := sc.init(paths)
	for st.live > k && st.live > 1 {
		second := 1
		for !st.alive[second] {
			second++
		}
		st.merge(0, second)
	}
	return st.result()
}

// Random merges uniformly random pairs; it models the paper's
// "arbitrary" baseline without positional bias. The RNG must be
// non-nil; experiments pass seeded sources for reproducibility.
type Random struct {
	Rng *rand.Rand
}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Reduce implements Strategy. The pair selection (and therefore the
// RNG consumption) is identical to the reference; only the merged
// path's storage changed, to one scratch buffer recycled across
// rounds.
func (r Random) Reduce(paths []model.Path, pat model.Pattern, m int, wrap bool, k int) []model.Path {
	if k < 1 {
		k = 1
	}
	ps := clonePaths(paths)
	var scratch model.Path
	for len(ps) > k && len(ps) > 1 {
		i := r.Rng.Intn(len(ps))
		j := r.Rng.Intn(len(ps) - 1)
		if j >= i {
			j++
		}
		if i > j {
			i, j = j, i
		}
		merged := ps[i].MergeInto(ps[j], scratch)
		scratch = ps[i]
		ps[i] = merged
		ps = append(ps[:j], ps[j+1:]...)
	}
	return ps
}

// SmallestTwo merges the two shortest paths each round — a length-only
// heuristic that ignores address distances; it isolates how much of
// the greedy strategy's win comes from cost awareness. The O(R) scan
// per round beats any heap bookkeeping at realistic path counts (the
// package benchmarks confirmed a heap variant was a pessimization),
// so only the merged path's storage changed from the reference: one
// scratch buffer recycled across rounds instead of an allocation per
// merge.
type SmallestTwo struct{}

// Name implements Strategy.
func (SmallestTwo) Name() string { return "smallest-two" }

// Reduce implements Strategy.
func (SmallestTwo) Reduce(paths []model.Path, pat model.Pattern, m int, wrap bool, k int) []model.Path {
	if k < 1 {
		k = 1
	}
	ps := clonePaths(paths)
	var scratch model.Path
	for len(ps) > k && len(ps) > 1 {
		i1, i2 := -1, -1
		for i, p := range ps {
			switch {
			case i1 == -1 || len(p) < len(ps[i1]):
				i2 = i1
				i1 = i
			case i2 == -1 || len(p) < len(ps[i2]):
				i2 = i
			}
		}
		if i1 > i2 {
			i1, i2 = i2, i1
		}
		merged := ps[i1].MergeInto(ps[i2], scratch)
		scratch = ps[i1]
		ps[i1] = merged
		ps = append(ps[:i2], ps[i2+1:]...)
	}
	return ps
}

// ByName resolves a strategy name as requests spell it: "" or
// "greedy" (the paper's heuristic), "naive", "smallest" or "optimal".
// code is the name's stable one-byte identity, which cache and routing
// keys embed ("" and "greedy" share 0, as they share a solve); ok is
// false for any other name.
func ByName(name string) (s Strategy, code uint8, ok bool) {
	switch name {
	case "", "greedy":
		return Greedy{}, 0, true
	case "naive":
		return Naive{}, 1, true
	case "smallest":
		return SmallestTwo{}, 2, true
	case "optimal":
		return Optimal{}, 3, true
	}
	return nil, 0, false
}

// Reduce runs the strategy and wraps the result in an Assignment.
func Reduce(s Strategy, paths []model.Path, pat model.Pattern, m int, wrap bool, k int) (model.Assignment, error) {
	return ReduceContext(context.Background(), s, paths, pat, m, wrap, k, nil)
}

// ReduceContext is Reduce with cooperative cancellation and an
// optional reusable scratch. The default (greedy) strategy checks ctx
// once per merge round, and the exact one (optimal) throughout its
// augmentations; both abandon the reduction with ctx's error when it
// fires. The other strategies complete regardless (their reductions
// are short — the ablation-only exhaustive search is never on the
// serving path). A nil scratch uses a transient one. On success the
// assignment is byte-identical to Reduce's for the same inputs.
//
// When ctx carries an obs.Trace, a "merge" span is recorded with the
// input path count, the number of merge rounds committed and the
// register constraint; without one the extra cost is a nil check.
func ReduceContext(ctx context.Context, s Strategy, paths []model.Path, pat model.Pattern, m int, wrap bool, k int, sc *Scratch) (model.Assignment, error) {
	if k < 1 {
		return model.Assignment{}, fmt.Errorf("merge: register constraint must be at least 1, got %d", k)
	}
	sp := obs.FromContext(ctx).StartSpan("merge")
	var out []model.Path
	var err error
	switch s.(type) {
	case Greedy:
		out, err = greedyReduce(ctx, paths, pat, m, wrap, k, sc)
	case Optimal:
		out, err = optimalReduce(ctx, paths, pat, m, wrap, k, sc)
	default:
		out = s.Reduce(paths, pat, m, wrap, k)
	}
	if err != nil {
		sp.Note("aborted").End()
		return model.Assignment{}, err
	}
	a := model.Assignment{Paths: out}.Normalize()
	if err := a.Validate(pat); err != nil {
		sp.Note("error").End()
		return model.Assignment{}, fmt.Errorf("merge: strategy %q produced invalid assignment: %w", s.Name(), err)
	}
	if a.Registers() > k {
		sp.Note("error").End()
		return model.Assignment{}, fmt.Errorf("merge: strategy %q left %d paths, constraint is %d", s.Name(), a.Registers(), k)
	}
	sp.Attr("paths", int64(len(paths))).
		Attr("rounds", int64(len(paths)-a.Registers())).
		Attr("k", int64(k)).
		End()
	return a, nil
}

func clonePaths(paths []model.Path) []model.Path {
	out := make([]model.Path, len(paths))
	for i, p := range paths {
		out[i] = p.Clone()
	}
	return out
}
