package pathcover

import (
	"context"
	"slices"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
)

// Options tunes the branch-and-bound search of MinCover.
type Options struct {
	// NodeBudget caps the number of explored search states; when the
	// budget is exhausted the best cover found so far is returned with
	// Exact=false. Zero selects DefaultNodeBudget.
	NodeBudget int
}

// DefaultNodeBudget is the branch-and-bound state cap used when
// Options.NodeBudget is zero. Patterns of the sizes the paper studies
// (N up to ~50) complete far below this limit.
const DefaultNodeBudget = 2_000_000

// MinCover computes phase 1 of the paper's allocator: a cover of the
// distance graph by the minimum number K~ of node-disjoint zero-cost
// paths.
//
// With wrap=false the problem is a minimum path cover of a DAG, solved
// exactly in polynomial time via maximum matching. With wrap=true the
// loop-back transition of every path must also be zero-cost; MinCover
// then runs a branch-and-bound search seeded with the greedy upper
// bound and, as the lower bound, the larger of the matching bound and
// the assignment bound (assign.go), mirroring the procedure of the
// companion ASP-DAC'98 paper. The search stops as soon as its best
// cover meets the lower bound. If no zero-cost cover exists at all
// (possible only when the loop stride exceeds the modify range), the
// returned cover is the intra-iteration optimum with ZeroCost=false.
//
// The search allocates all scratch state up front and runs place()
// allocation-free: the per-node symmetric-duplicate dedup uses a flat
// offset-pair array with generation stamps and an undo log instead of
// a map, new paths draw from per-depth pooled buffers, and improved
// covers are recorded into a reusable flat store. See bb_reference.go
// for the retained pre-rewrite search the differential tests compare
// against. MinCoverCtx (scratch.go) is the same computation with
// cooperative cancellation and a reusable cross-solve scratch.
func MinCover(dg *distgraph.Graph, wrap bool, opts *Options) Cover {
	c, _ := MinCoverCtx(context.Background(), dg, wrap, opts, nil)
	return c
}

// bbSearch carries the branch-and-bound state: accesses are placed in
// program order, each either appended to an open path (keeping all
// intra transitions zero-cost) or opening a new path; a leaf is
// feasible when every path's wrap transition is zero-cost.
//
// All scratch storage is allocated by newBBSearch and reused, so the
// recursive place() performs no allocation (asserted by
// TestPlaceZeroAlloc).
type bbSearch struct {
	dg        *distgraph.Graph
	n         int
	budget    int
	nodes     int
	pruned    int
	exhausted bool
	best      int
	// lb is the root lower bound: once best reaches it no leaf can
	// improve, and the search unwinds.
	lb int
	// ctxDone, when non-nil, is polled every ctxCheckMask+1 explored
	// nodes; a fired channel sets aborted and unwinds the search
	// without touching the explored-tree bookkeeping.
	ctxDone <-chan struct{}
	aborted bool
	open    []model.Path
	// badWrap tracks, per open path, whether its current (tail, head)
	// wrap transition costs; such paths need at least one more access.
	badWrap []bool
	numBad  int

	// offID maps each access to a dense id of its offset value; the
	// symmetric-duplicate scratch below is keyed on (tail id, head id).
	// offIDs is the persistent offset→id map, cleared (not dropped)
	// between graphs so reuse stays allocation-free once warm.
	offID  []int
	offIDs map[int]int
	numOff int
	// tried is the flat offset-pair dedup scratch. An entry equal to
	// the current node's generation means "already tried here"; stamps
	// from other nodes never collide because every place() call draws
	// a fresh generation, and the undo log restores overwritten
	// ancestor stamps on exit.
	tried []uint64
	gen   uint64
	undo  []triedUndo
	// lastSucc[v] memoizes the largest zero-cost successor of v (-1 if
	// none), making the bad-wrap reachability prune O(1) per open path
	// with no edge-list walk.
	lastSucc []int
	// pathBuf pools one reusable path buffer per open-path slot; the
	// buffer backing a slot survives backtracking, so opening a path
	// at a previously visited depth costs no allocation.
	pathBuf []model.Path
	// bestFlat/bestLens store the best cover found as one flat index
	// array plus per-path lengths, overwritten in place on every
	// improvement.
	bestFlat []int
	bestLens []int
	haveBest bool
}

// triedUndo records one overwritten dedup stamp for restoration.
type triedUndo struct {
	key  int
	prev uint64
}

// newBBSearch allocates a search initialized for dg.
func newBBSearch(dg *distgraph.Graph, budget int) *bbSearch {
	s := &bbSearch{}
	s.init(dg, budget, nil)
	return s
}

// init (re)targets the search at dg, reusing every scratch buffer a
// previous graph left behind. The dedup stamps are deliberately not
// zeroed: the generation counter keeps increasing across graphs, so
// stale stamps can never equal a fresh generation.
func (s *bbSearch) init(dg *distgraph.Graph, budget int, ctxDone <-chan struct{}) {
	n := dg.N()
	s.dg, s.n, s.budget = dg, n, budget
	s.ctxDone = ctxDone
	s.aborted = false
	s.reset()
	if s.offIDs == nil {
		s.offIDs = make(map[int]int, n)
	} else {
		clear(s.offIDs)
	}
	s.offID = resize(s.offID, n)
	for i, d := range dg.Pattern.Offsets {
		id, ok := s.offIDs[d]
		if !ok {
			id = len(s.offIDs)
			s.offIDs[d] = id
		}
		s.offID[i] = id
	}
	s.numOff = len(s.offIDs)
	if need := s.numOff * s.numOff; cap(s.tried) >= need {
		s.tried = s.tried[:need]
	} else {
		s.tried = make([]uint64, need)
		s.gen = 0
	}
	if cap(s.undo) < 2*n {
		s.undo = make([]triedUndo, 0, 2*n)
	}
	s.undo = s.undo[:0]
	s.lastSucc = resize(s.lastSucc, n)
	for v := 0; v < n; v++ {
		s.lastSucc[v] = dg.LastSucc(v)
	}
	if cap(s.open) < n {
		s.open = make([]model.Path, 0, n)
	}
	if cap(s.badWrap) < n {
		s.badWrap = make([]bool, 0, n)
	}
	if cap(s.pathBuf) >= n {
		s.pathBuf = s.pathBuf[:n]
	} else {
		old := s.pathBuf
		s.pathBuf = make([]model.Path, n)
		copy(s.pathBuf, old)
	}
	if cap(s.bestFlat) < n {
		s.bestFlat = make([]int, 0, n)
	}
	if cap(s.bestLens) < n {
		s.bestLens = make([]int, 0, n)
	}
}

func (s *bbSearch) run() {
	s.open = s.open[:0]
	s.badWrap = s.badWrap[:0]
	s.numBad = 0
	s.place(0)
}

// reset rewinds the search outcome so run() can be repeated on the
// same graph with all scratch storage warm (used by the zero-alloc
// test and benchmark).
func (s *bbSearch) reset() {
	s.lb = 0
	s.nodes = 0
	s.pruned = 0
	s.exhausted = false
	s.best = int(^uint(0) >> 1)
	s.haveBest = false
}

// ctxCheckMask throttles cancellation polling to every 256 explored
// nodes: frequent enough that a canceled solve unwinds in microseconds,
// cheap enough to vanish in the per-node work.
const ctxCheckMask = 255

func (s *bbSearch) place(i int) {
	if s.exhausted || s.aborted || s.best <= s.lb {
		return
	}
	s.nodes++
	if s.nodes > s.budget {
		s.exhausted = true
		return
	}
	if s.ctxDone != nil && s.nodes&ctxCheckMask == 0 {
		select {
		case <-s.ctxDone:
			s.aborted = true
			return
		default:
		}
	}
	if len(s.open) >= s.best {
		s.pruned++
		return // cannot improve: path count never decreases
	}
	remaining := s.n - i
	if s.numBad > remaining {
		s.pruned++
		return // each bad-wrap path needs at least one future access
	}
	if i == s.n {
		if s.numBad == 0 {
			s.best = len(s.open)
			s.saveBest()
		}
		return
	}

	// A bad-wrap path whose tail has no future zero-cost successor can
	// never be repaired; prune the whole branch.
	for pi, p := range s.open {
		if s.badWrap[pi] && s.lastSucc[p[len(p)-1]] < i {
			s.pruned++
			return
		}
	}

	// Branch 1: append access i to each compatible open path, skipping
	// symmetric duplicates (paths with identical tail and head offsets
	// are interchangeable).
	s.gen++
	gen := s.gen
	undoBase := len(s.undo)
	for pi := range s.open {
		p := s.open[pi]
		tail, head := p[len(p)-1], p[0]
		if !s.dg.ZeroIntra(tail, i) {
			continue
		}
		key := s.offID[tail]*s.numOff + s.offID[head]
		if s.tried[key] == gen {
			continue
		}
		s.undo = append(s.undo, triedUndo{key: key, prev: s.tried[key]})
		s.tried[key] = gen

		wasBad := s.badWrap[pi]
		nowBad := !s.dg.ZeroWrap(i, head)
		s.open[pi] = append(p, i)
		s.badWrap[pi] = nowBad
		s.numBad += boolDelta(wasBad, nowBad)

		s.place(i + 1)

		s.open[pi] = p
		s.badWrap[pi] = wasBad
		s.numBad -= boolDelta(wasBad, nowBad)
	}
	// Restore overwritten stamps so ancestor nodes still see theirs.
	for u := len(s.undo) - 1; u >= undoBase; u-- {
		s.tried[s.undo[u].key] = s.undo[u].prev
	}
	s.undo = s.undo[:undoBase]

	// Branch 2: open a new path at access i.
	newBad := !s.dg.ZeroWrap(i, i) // singleton wrap distance is the stride
	d := len(s.open)
	buf := s.pathBuf[d]
	if cap(buf) < s.n {
		buf = make(model.Path, 0, s.n)
		s.pathBuf[d] = buf
	}
	s.open = append(s.open, append(buf[:0], i))
	s.badWrap = append(s.badWrap, newBad)
	if newBad {
		s.numBad++
	}

	s.place(i + 1)

	s.open = s.open[:len(s.open)-1]
	s.badWrap = s.badWrap[:len(s.badWrap)-1]
	if newBad {
		s.numBad--
	}
}

// saveBest records the current open paths into the flat best store
// without allocating.
func (s *bbSearch) saveBest() {
	s.bestFlat = s.bestFlat[:0]
	s.bestLens = s.bestLens[:0]
	for _, p := range s.open {
		s.bestFlat = append(s.bestFlat, p...)
		s.bestLens = append(s.bestLens, len(p))
	}
	s.haveBest = true
}

// bestCover materializes the recorded best cover, nil if the search
// never improved on its seed.
func (s *bbSearch) bestCover() []model.Path {
	if !s.haveBest {
		return nil
	}
	out := make([]model.Path, len(s.bestLens))
	off := 0
	for i, l := range s.bestLens {
		out[i] = append(model.Path(nil), s.bestFlat[off:off+l]...)
		off += l
	}
	return out
}

func boolDelta(was, now bool) int {
	switch {
	case !was && now:
		return 1
	case was && !now:
		return -1
	default:
		return 0
	}
}

func clonePaths(paths []model.Path) []model.Path {
	out := make([]model.Path, len(paths))
	for i, p := range paths {
		out[i] = p.Clone()
	}
	return out
}

func sortPaths(paths []model.Path) []model.Path {
	// Disjoint paths have distinct first elements, so this unstable
	// sort is deterministic; slices.SortFunc avoids the interface
	// boxing sort.Slice would pay per call.
	slices.SortFunc(paths, func(a, b model.Path) int { return a[0] - b[0] })
	return paths
}
