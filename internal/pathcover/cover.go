package pathcover

import (
	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
)

// Cover is the result of a phase-1 computation: a partition of the
// pattern's accesses into register subsequences ("paths").
type Cover struct {
	// Paths partitions the accesses; Paths[r] is register r's
	// subsequence, sorted by first access.
	Paths []model.Path
	// ZeroCost reports whether every path is zero-cost under the mode
	// the cover was computed for (with or without wrap transitions).
	ZeroCost bool
	// Exact reports whether the path count is proven minimal among
	// zero-cost covers (false when the branch-and-bound search was
	// truncated by its node budget).
	Exact bool
	// Nodes counts the search effort spent: branch-and-bound states
	// explored for the wrap objective, or one unit per access for the
	// polynomial DAG case (and for a greedy seed that already meets
	// the lower bound, or a wrap objective the assignment bound proves
	// infeasible), so work counters stay comparable across modes.
	Nodes int
	// Pruned counts branch-and-bound subtrees cut by the bound, the
	// bad-wrap feasibility count and the reachability prune (0 for the
	// polynomial DAG case and the greedy fast path).
	Pruned int
}

// K returns the number of paths, the paper's K~ when the cover is a
// minimal zero-cost cover.
func (c Cover) K() int { return len(c.Paths) }

// Assignment converts the cover to a model.Assignment.
func (c Cover) Assignment() model.Assignment {
	a := model.Assignment{Paths: make([]model.Path, len(c.Paths))}
	for i, p := range c.Paths {
		a.Paths[i] = p.Clone()
	}
	return a
}

// LowerBound returns a lower bound on the number of paths of any
// zero-cost cover: N minus the maximum matching of the bipartite
// out/in-copy graph of the intra-iteration distance graph (exact for
// the no-wrap case by König's theorem, a relaxation otherwise). This is
// the bound technique the paper adopts from Araujo et al. [2].
func LowerBound(dg *distgraph.Graph) int {
	n := dg.N()
	_, _, size := hopcroftKarp(intraBipartite(dg))
	return n - size
}

// intraBipartite views the intra-iteration distance graph as the
// bipartite out/in-copy graph of the matcher. It aliases the graph's
// bit matrix; nothing is copied.
func intraBipartite(dg *distgraph.Graph) bipartite {
	return bipartite{n: dg.N(), words: dg.Words(), rows: dg.Succ()}
}

// MinCoverDAG computes an exact minimum path cover of the
// intra-iteration distance graph (wrap transitions ignored) via maximum
// bipartite matching. The result is always zero-cost intra-iteration
// and its size equals LowerBound(dg).
func MinCoverDAG(dg *distgraph.Graph) []model.Path {
	var sc Scratch
	return clonePaths(sc.minCoverDAG(dg))
}

// minCoverDAG is the scratch-backed core of MinCoverDAG: the matcher
// state and the path store (one flat index array plus headers) are
// drawn from the scratch, so a warm solve performs no allocation here.
// The returned paths are valid until the scratch's next use.
func (sc *Scratch) minCoverDAG(dg *distgraph.Graph) []model.Path {
	matchL, matchR, _ := sc.match.run(intraBipartite(dg))
	return sc.pathsOf(matchL, matchR)
}

// pathsOf lists the paths a matching of program-ordered arcs forms, in
// order of first access, in the scratch's path store.
func (sc *Scratch) pathsOf(matchL, matchR []int) []model.Path {
	n := len(matchL)
	sc.dagFlat = sc.dagFlat[:0]
	if cap(sc.dagFlat) < n {
		sc.dagFlat = make([]int, 0, n)
	}
	sc.dagPaths = sc.dagPaths[:0]
	for v := 0; v < n; v++ {
		if matchR[v] != -1 {
			continue // v has a predecessor in its path
		}
		start := len(sc.dagFlat)
		sc.dagFlat = append(sc.dagFlat, v)
		for u := v; matchL[u] != -1; u = matchL[u] {
			sc.dagFlat = append(sc.dagFlat, matchL[u])
		}
		sc.dagPaths = append(sc.dagPaths, model.Path(sc.dagFlat[start:len(sc.dagFlat):len(sc.dagFlat)]))
	}
	return sc.dagPaths
}

// GreedyCover computes a heuristic zero-cost cover by scanning the
// accesses in program order and appending each to a compatible open
// path (smallest absolute post-modify distance wins; ties favour the
// oldest path), opening a new path when none fits. With wrap set, an
// append is only allowed if the path's loop-back transition stays
// zero-cost, so the result is a zero-cost cover whenever one is reached
// greedily. The path count is the upper bound used to seed the
// branch-and-bound search.
func GreedyCover(dg *distgraph.Graph, wrap bool) []model.Path {
	n := dg.N()
	var paths []model.Path
	for i := 0; i < n; i++ {
		best := -1
		bestDist := 0
		for pi, p := range paths {
			tail := p[len(p)-1]
			if !dg.ZeroIntra(tail, i) {
				continue
			}
			if wrap && !dg.ZeroWrap(i, p[0]) {
				continue
			}
			d := dg.Pattern.Distance(tail, i)
			if d < 0 {
				d = -d
			}
			if best == -1 || d < bestDist {
				best, bestDist = pi, d
			}
		}
		if best >= 0 {
			paths[best] = append(paths[best], i)
		} else {
			paths = append(paths, model.Path{i})
		}
	}
	return paths
}

// coverZeroCost reports whether all paths are zero-cost in the given
// mode.
func coverZeroCost(dg *distgraph.Graph, paths []model.Path, wrap bool) bool {
	for _, p := range paths {
		if !dg.PathIsZeroCost(p, wrap) {
			return false
		}
	}
	return true
}
