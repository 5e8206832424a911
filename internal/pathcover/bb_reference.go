// Reference branch-and-bound search, retained from before the
// zero-allocation rewrite: it allocates a dedup map per search node and
// clones the open path set on every improvement. The differential tests
// assert the rewritten search in bb.go explores the identical tree
// (same cover, same exactness, same node count). It shares the root
// lower bound — the assignment bound, computed by the same code — and
// the stop once the best cover meets it, so the trees stay comparable;
// the bound itself is checked against brute force in the tests.

package pathcover

import (
	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
)

// minCoverReference mirrors MinCover on top of the reference search.
func minCoverReference(dg *distgraph.Graph, wrap bool, opts *Options) Cover {
	if !wrap {
		return Cover{Paths: sortPaths(MinCoverDAG(dg)), ZeroCost: true, Exact: true, Nodes: dg.N()}
	}
	budget := DefaultNodeBudget
	if opts != nil && opts.NodeBudget > 0 {
		budget = opts.NodeBudget
	}

	matchL, matchR, size := hopcroftKarp(intraBipartite(dg))
	lb := dg.N() - size
	s := &refBBSearch{dg: dg, n: dg.N(), budget: budget, best: int(^uint(0) >> 1)}

	if greedy := GreedyCover(dg, true); coverZeroCost(dg, greedy, true) {
		s.best = len(greedy)
		s.bestPaths = clonePaths(greedy)
		if s.best == lb {
			return Cover{Paths: sortPaths(s.bestPaths), ZeroCost: true, Exact: true, Nodes: dg.N()}
		}
	}
	var a assigner
	alb, ok, _ := a.bound(dg, matchL, matchR, nil)
	if !ok {
		return Cover{Paths: sortPaths(MinCoverDAG(dg)), Exact: true, Nodes: dg.N()}
	}
	s.lb = max(lb, alb)
	if s.best == s.lb {
		return Cover{Paths: sortPaths(s.bestPaths), ZeroCost: true, Exact: true, Nodes: dg.N()}
	}

	s.run()

	if s.bestPaths == nil {
		// No zero-cost cover exists; fall back to the intra-iteration
		// optimum. The search completing within budget proves
		// infeasibility.
		return Cover{
			Paths:    sortPaths(MinCoverDAG(dg)),
			ZeroCost: false,
			Exact:    !s.exhausted,
			Nodes:    s.nodes,
		}
	}
	return Cover{
		Paths:    sortPaths(s.bestPaths),
		ZeroCost: true,
		Exact:    !s.exhausted || s.best == s.lb,
		Nodes:    s.nodes,
	}
}

// refBBSearch is the pre-rewrite search state.
type refBBSearch struct {
	dg        *distgraph.Graph
	n         int
	budget    int
	nodes     int
	exhausted bool
	best      int
	lb        int
	bestPaths []model.Path
	open      []model.Path
	badWrap   []bool
	numBad    int
}

func (s *refBBSearch) run() {
	s.open = s.open[:0]
	s.badWrap = s.badWrap[:0]
	s.numBad = 0
	s.place(0)
}

func (s *refBBSearch) place(i int) {
	if s.exhausted || s.best <= s.lb {
		return
	}
	s.nodes++
	if s.nodes > s.budget {
		s.exhausted = true
		return
	}
	if len(s.open) >= s.best {
		return // cannot improve: path count never decreases
	}
	remaining := s.n - i
	if s.numBad > remaining {
		return // each bad-wrap path needs at least one future access
	}
	if i == s.n {
		if s.numBad == 0 {
			s.best = len(s.open)
			s.bestPaths = clonePaths(s.open)
		}
		return
	}

	// A bad-wrap path whose tail has no future zero-cost successor can
	// never be repaired; prune the whole branch.
	for pi, p := range s.open {
		if s.badWrap[pi] && !s.hasFutureSuccessor(p[len(p)-1], i) {
			return
		}
	}

	// Branch 1: append access i to each compatible open path, skipping
	// symmetric duplicates (paths with identical tail and head offsets
	// are interchangeable).
	type sig struct{ tail, head int }
	tried := make(map[sig]bool)
	for pi := range s.open {
		p := s.open[pi]
		tail, head := p[len(p)-1], p[0]
		if !s.dg.ZeroIntra(tail, i) {
			continue
		}
		key := sig{s.dg.Pattern.Offsets[tail], s.dg.Pattern.Offsets[head]}
		if tried[key] {
			continue
		}
		tried[key] = true

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

	// Branch 2: open a new path at access i.
	newBad := !s.dg.ZeroWrap(i, i) // singleton wrap distance is the stride
	s.open = append(s.open, model.Path{i})
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

// hasFutureSuccessor reports whether tail has any zero-cost successor
// with index >= i.
func (s *refBBSearch) hasFutureSuccessor(tail, i int) bool {
	for j := i; j < s.n; j++ {
		if s.dg.ZeroIntra(tail, j) {
			return true
		}
	}
	return false
}
