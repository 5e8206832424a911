package pathcover

import (
	"math/bits"

	"dspaddr/internal/distgraph"
)

// The wrap objective's assignment bound. Every zero-cost wrap cover is
// a perfect assignment of each access to a successor: the next access
// on its path (a later access, reached at zero intra cost: cost 0), or,
// for the path's last access, the path's first access (an access no
// later than itself, reached by a zero-cost wrap: cost 1). The cover's
// path count equals its assignment's cost, so the minimum-cost perfect
// assignment bounds K~ from below, and if no perfect assignment exists
// no zero-cost wrap cover does. The bound is the linear assignment
// relaxation (Kuhn's Hungarian method): a cheapest assignment may
// close a cycle with several backward steps, which no path can.
//
// It is never weaker than the matching bound: the cost-0 steps of any
// assignment are a matching of the intra-iteration graph.

// assigner computes the bound by successive shortest augmenting paths
// (Dijkstra on reduced costs with left/right potentials y, z). It
// starts from the Hopcroft-Karp matching of the intra-iteration graph
// with zero potentials — all its edges cost 0, so they are tight and
// it is a cheapest matching of its size — and augments only the
// k = N − |matching| missing rows, walking both bit matrices' set bits.
type assigner struct {
	n, words       int
	intra, wrap    []uint64
	matchL, matchR []int
	y, z           []int // left and right potentials
	distL, distR   []int
	prevR          []int    // left node that last lowered distR[v]
	heap           []uint64 // (dist<<32 | right node), a binary min-heap
	ctxDone        <-chan struct{}
	pops           int
	aborted        bool
}

// bound returns the minimum cost of a perfect assignment of dg
// and whether one exists, starting from the intra-iteration maximum
// matching (matchL, matchR), which it does not modify. It polls
// ctxDone like the search does and reports aborted when it fires.
func (a *assigner) bound(dg *distgraph.Graph, matchL, matchR []int, ctxDone <-chan struct{}) (cost int, ok, aborted bool) {
	n := dg.N()
	a.n, a.words = n, dg.Words()
	a.intra = dg.Succ()
	a.wrap = dg.FillWrap(a.wrap)
	a.matchL = append(a.matchL[:0], matchL...)
	a.matchR = append(a.matchR[:0], matchR...)
	a.y = resize(a.y, n)
	a.z = resize(a.z, n)
	clear(a.y)
	clear(a.z)
	a.distL = resize(a.distL, n)
	a.distR = resize(a.distR, n)
	a.prevR = resize(a.prevR, n)
	a.ctxDone, a.pops, a.aborted = ctxDone, 0, false

	free := 0
	for _, v := range a.matchL {
		if v == -1 {
			free++
		}
	}
	for ; free > 0; free-- {
		t := a.shortestPath()
		if a.aborted {
			return 0, false, true
		}
		if t == -1 {
			return 0, false, false
		}
		a.augment(t)
	}
	for u, v := range a.matchL {
		if v <= u {
			cost++ // a wrap step closes a path
		}
	}
	return cost, true, false
}

// shortestPath runs one Dijkstra from every free left node over the
// reduced costs c(u,v) − y[u] − z[v] ≥ 0, stops at the nearest free
// right node and updates the potentials so the path found and every
// matched edge are tight. It returns that right node, or -1 if none
// is reachable (no perfect assignment exists).
func (a *assigner) shortestPath() int {
	for i := 0; i < a.n; i++ {
		a.distL[i], a.distR[i] = matchInf, matchInf
	}
	a.heap = a.heap[:0]
	for u, v := range a.matchL {
		if v == -1 {
			a.distL[u] = 0
			a.relax(u)
		}
	}
	target := -1
	for len(a.heap) > 0 {
		e := a.pop()
		d, v := int(e>>32), int(uint32(e))
		if d != a.distR[v] {
			continue // stale entry
		}
		if a.pops++; a.ctxDone != nil && a.pops&ctxCheckMask == 0 {
			select {
			case <-a.ctxDone:
				a.aborted = true
				return -1
			default:
			}
		}
		u := a.matchR[v]
		if u == -1 {
			target = v
			break
		}
		a.distL[u] = d // the matched edge is tight
		a.relax(u)
	}
	if target == -1 {
		return -1
	}
	d := a.distR[target]
	for i := 0; i < a.n; i++ {
		if a.distL[i] < d {
			a.y[i] += d - a.distL[i]
		}
		if a.distR[i] < d {
			a.z[i] -= d - a.distR[i]
		}
	}
	return target
}

// relax lowers the distance of every right node left node u reaches:
// the later accesses of its intra row at cost 0 and the no-later
// accesses of its wrap row at cost 1.
func (a *assigner) relax(u int) {
	base := a.distL[u] - a.y[u]
	for cost, rows := range [2][]uint64{a.intra, a.wrap} {
		for wi, word := range rows[u*a.words : (u+1)*a.words] {
			for ; word != 0; word &= word - 1 {
				v := wi<<6 | bits.TrailingZeros64(word)
				if nd := base + cost - a.z[v]; nd < a.distR[v] {
					a.distR[v], a.prevR[v] = nd, u
					a.push(uint64(nd)<<32 | uint64(v))
				}
			}
		}
	}
}

// augment flips the alternating path ending at free right node v.
func (a *assigner) augment(v int) {
	for v != -1 {
		u := a.prevR[v]
		next := a.matchL[u]
		a.matchL[u], a.matchR[v] = v, u
		v = next
	}
}

func (a *assigner) push(x uint64) {
	h := append(a.heap, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	a.heap = h
}

func (a *assigner) pop() uint64 {
	h := a.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	a.heap = h
	return top
}
