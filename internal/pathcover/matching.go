// Package pathcover implements phase 1 of the paper's allocator: cover
// the distance graph with the minimum number K~ of node-disjoint paths,
// so that all array addresses are computed by zero-cost post-modify
// operations only.
//
// Without inter-iteration (wrap) constraints the distance graph is a
// DAG and the minimum path cover is computed exactly in polynomial time
// via König's theorem: minCover = N - maxMatching of the bipartite
// out/in-copy graph (the bound technique of Araujo et al. [2]). With
// wrap constraints the matching value remains a lower bound, a greedy
// cover provides an upper bound, and a branch-and-bound search (per the
// companion ASP-DAC'98 paper [3]) closes the gap. MinCostCover reuses
// the matching for phase 2's exact merge (see assign.go).
package pathcover

import "math/bits"

// bipartite is the bit-matrix bipartite graph the Hopcroft-Karp
// matcher runs on: n left and n right nodes, and row u (words words
// of rows) holds left node u's right neighbours as set bits. The
// distance graph's own matrix is aliased directly, and walking a row's
// set bits visits the neighbours in ascending order.
type bipartite struct {
	n, words int
	rows     []uint64
}

// row returns left node u's neighbour bits.
func (g bipartite) row(u int) []uint64 { return g.rows[u*g.words : (u+1)*g.words] }

// matcher carries the Hopcroft-Karp working state. Its backing slices
// are reusable across runs (see matchScratch); methods replace the
// former closure-based implementation so a solve performs no closure
// allocations.
type matcher struct {
	g               bipartite
	matchL, matchR  []int
	dist            []int
	queue           []int
	matched, unseen []uint64 // right-node bit sets of the BFS
}

const matchInf = int(^uint(0) >> 1)

// run computes a maximum matching, returning matchL (left -> right or
// -1) and matchR (right -> left or -1) plus its cardinality, in
// O(E * sqrt(V)). The returned slices alias the matcher's scratch and
// are valid until its next run.
func (mt *matcher) run(g bipartite) (matchL, matchR []int, size int) {
	mt.g = g
	mt.matchL = resize(mt.matchL, g.n)
	mt.matchR = resize(mt.matchR, g.n)
	mt.dist = resize(mt.dist, g.n)
	mt.matched = resize(mt.matched, g.words)
	mt.unseen = resize(mt.unseen, g.words)
	if cap(mt.queue) < g.n {
		mt.queue = make([]int, 0, g.n)
	}
	for i := range mt.matchL {
		mt.matchL[i] = -1
	}
	for i := range mt.matchR {
		mt.matchR[i] = -1
	}
	for mt.bfs() {
		for u := 0; u < g.n; u++ {
			if mt.matchL[u] == -1 && mt.dfs(u) {
				size++
			}
		}
	}
	return mt.matchL, mt.matchR, size
}

// bfs layers the left nodes by alternating-path distance from the
// free ones and reports whether some layered node has a free right
// neighbour. It walks rows with word operations: unseen holds the
// matched right nodes whose partner is not layered yet, so each row
// costs O(words) plus one step per node it layers.
func (mt *matcher) bfs() bool {
	mt.queue = mt.queue[:0]
	for u := 0; u < mt.g.n; u++ {
		if mt.matchL[u] == -1 {
			mt.dist[u] = 0
			mt.queue = append(mt.queue, u)
		} else {
			mt.dist[u] = matchInf
		}
	}
	clear(mt.matched)
	for v, u := range mt.matchR {
		if u != -1 {
			mt.matched[v>>6] |= 1 << (v & 63)
		}
	}
	copy(mt.unseen, mt.matched)
	found := false
	for qi := 0; qi < len(mt.queue); qi++ {
		u := mt.queue[qi]
		for wi, word := range mt.g.row(u) {
			if word&^mt.matched[wi] != 0 {
				found = true
			}
			for next := word & mt.unseen[wi]; next != 0; next &= next - 1 {
				w := mt.matchR[wi<<6|bits.TrailingZeros64(next)]
				mt.dist[w] = mt.dist[u] + 1
				mt.queue = append(mt.queue, w)
			}
			mt.unseen[wi] &^= word
		}
	}
	return found
}

func (mt *matcher) dfs(u int) bool {
	for wi, word := range mt.g.row(u) {
		for ; word != 0; word &= word - 1 {
			v := wi<<6 | bits.TrailingZeros64(word)
			w := mt.matchR[v]
			if w == -1 || (mt.dist[w] == mt.dist[u]+1 && mt.dfs(w)) {
				mt.matchL[u] = v
				mt.matchR[v] = u
				return true
			}
		}
	}
	mt.dist[u] = matchInf
	return false
}

// hopcroftKarp is the transient-scratch form of matcher.run for
// callers outside the solver hot path.
func hopcroftKarp(g bipartite) (matchL, matchR []int, size int) {
	var mt matcher
	return mt.run(g)
}

// resize returns a length-n slice, reusing buf's backing array when
// it is large enough.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
