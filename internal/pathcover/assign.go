package pathcover

import (
	"context"
	"math/bits"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
)

// The assignment solver. Two questions of the allocator are cheapest
// assignments of accesses to successors over arcs that cost 0 or 1:
//
//   - Phase 1's wrap bound. A zero-cost wrap cover is a perfect
//     assignment: each access is followed by a later access at zero
//     intra cost (cost 0) or closes its path with a zero-cost wrap to
//     an access no later than itself (cost 1). The cheapest perfect
//     assignment (Kuhn's Hungarian method) thus bounds K~ from below,
//     and if none exists neither does a zero-cost wrap cover. It is
//     a relaxation (a cycle may take several backward steps, which no
//     path can), never weaker than the matching bound.
//   - Phase 2's exact merge (MinCostCover). Without the wrap term a
//     cover by k program-ordered paths is a matching of N − k arcs
//     i→j (i < j), costing 0 on a distance-graph edge and 1 otherwise,
//     so the cheapest such matching is the cheapest cover (Gebotys,
//     ICCAD 1997).
//
// assigner answers both by successive shortest augmenting paths
// (Dijkstra on reduced costs with left/right potentials y, z). It
// starts from the Hopcroft-Karp matching of the intra-iteration graph
// with zero potentials — all its edges cost 0, so they are tight and
// it is a cheapest matching of its size — and each augmentation keeps
// the matching a cheapest one of its size.
type assigner struct {
	n, words       int
	zero, one      []uint64 // cost-0 and cost-1 arcs, one row per left node
	later          bool     // every later right node is a cost-1 arc (one unused)
	matchL, matchR []int
	y, z           []int // left and right potentials
	distL, distR   []int
	prevR          []int // left node that last lowered distR[v]
	// The queue is a segment tree over the right nodes, leaf v at
	// size+v. Per tree node: lo is the least −z of its unsettled
	// leaves, offer a tentative distance-plus-z for all its leaves made
	// by left node from (a whole suffix relaxes in O(log N) this way),
	// and best the least tentative distance among its leaves counting
	// the offers at or below it.
	size                  int
	lo, offer, best, from []int
	// What the last Dijkstra changed, so the next resets only that:
	// touchedL and touchedR list the left and right nodes given a
	// distance, settled the right nodes popped (the only leaves whose
	// lo, and z, moved), and offered the tree nodes given an offer.
	touchedL, touchedR, settled, offered []int
	buf                                  []int // backs every []int above
	ctxDone                              <-chan struct{}
	work                                 int // queue work since ctxDone was last polled
	aborted                              bool
}

// noOffer is the queue's infinity. Sums of two stay in range, and a
// subtree with no unsettled leaf keeps a best above noOffer/2.
const noOffer = 1 << 40

// pollWork is how much work (set bits and row words visited, plus
// tree nodes reset) the solver does between polls of ctxDone: well
// under a millisecond.
const pollWork = 1 << 14

// init loads the cost-0 arcs (dg's Succ) and a copy of the starting
// matching (matchL, matchR), with zero potentials. The caller sets
// the cost-1 arcs.
func (a *assigner) init(dg *distgraph.Graph, matchL, matchR []int, ctxDone <-chan struct{}) {
	n := dg.N()
	a.n, a.words, a.zero = n, dg.Words(), dg.Succ()
	a.size = 1 << bits.Len(uint(n-1))
	// One buffer backs the per-node arrays, so a fresh assigner
	// allocates them at once. At most n nodes per side get a distance
	// or settle, and at most 2·size tree nodes an offer, so the touched
	// lists never outgrow their share.
	a.buf = resize(a.buf, 10*n+10*a.size)
	buf := a.buf
	take := func(k int) []int {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	a.matchL, a.matchR = take(n), take(n)
	copy(a.matchL, matchL)
	copy(a.matchR, matchR)
	a.y, a.z = take(n), take(n)
	clear(a.y)
	clear(a.z)
	a.distL, a.distR, a.prevR = take(n), take(n), take(n)
	a.touchedL, a.touchedR, a.settled = take(n)[:0], take(n)[:0], take(n)[:0]
	a.lo, a.offer = take(2*a.size), take(2*a.size)
	a.best, a.from = take(2*a.size), take(2*a.size)
	a.offered = take(2 * a.size)[:0]
	for v := 0; v < n; v++ {
		a.distL[v], a.distR[v] = matchInf, noOffer
		a.lo[a.size+v], a.offer[a.size+v], a.best[a.size+v] = -a.z[v], noOffer, noOffer
	}
	for x := a.size + n; x < 2*a.size; x++ { // padding: never a candidate
		a.lo[x], a.offer[x], a.best[x] = noOffer, noOffer, noOffer
	}
	for x := a.size - 1; x > 0; x-- {
		a.lo[x], a.offer[x], a.best[x] = min(a.lo[2*x], a.lo[2*x+1]), noOffer, noOffer
	}
	a.ctxDone, a.work, a.aborted = ctxDone, 2*a.size, false
}

// bound returns the minimum cost of a perfect assignment of dg
// and whether one exists, starting from the intra-iteration maximum
// matching (matchL, matchR), which it does not modify. It polls
// ctxDone like the search does and reports aborted when it fires.
func (a *assigner) bound(dg *distgraph.Graph, matchL, matchR []int, ctxDone <-chan struct{}) (cost int, ok, aborted bool) {
	a.init(dg, matchL, matchR, ctxDone)
	a.one, a.later = dg.FillWrap(a.one), false
	free := 0
	for _, v := range a.matchL {
		if v == -1 {
			free++
		}
	}
	if !a.grow(free) {
		return 0, false, a.aborted
	}
	for u, v := range a.matchL {
		if v <= u {
			cost++ // a wrap step closes a path
		}
	}
	return cost, true, false
}

// MinCostCover computes phase 2 exactly for the intra-iteration
// objective: a cover of dg's accesses by at most k program-ordered
// paths whose summed transition cost is minimal, and that cost. It
// matches as phase 1 does, then makes the K~ − k cheapest
// augmentations, each O(N log N) plus a scan of the Succ rows reached;
// a budget of one register (or fewer) admits only the access order. ctx is polled throughout; on
// cancellation the solve is abandoned with ctx's error. A nil scratch
// uses a transient one. The paths are in order of first access and
// owned by the caller.
func MinCostCover(ctx context.Context, dg *distgraph.Graph, k int, sc *Scratch) ([]model.Path, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if sc == nil {
		sc = &Scratch{}
	}
	matchL, matchR, size := sc.match.run(intraBipartite(dg))
	a := &sc.assign
	a.init(dg, matchL, matchR, ctx.Done())
	a.later = true
	if k <= 1 {
		for u := range a.matchL {
			a.matchL[u], a.matchR[u] = u+1, u-1
		}
		a.matchL[a.n-1] = -1
	} else if !a.grow(a.n - k - size) {
		// An augmenting path exists below N − 1 arcs (the chain of all
		// accesses is a matching), so only cancellation stops growth.
		return nil, 0, ctx.Err()
	}

	cost := 0
	for u, w := range a.matchL {
		if w != -1 && a.zero[u*a.words+w>>6]&(1<<(w&63)) == 0 {
			cost++
		}
	}
	return clonePaths(sc.pathsOf(a.matchL, a.matchR)), cost, nil
}

// grow makes count cheapest augmentations and reports whether all
// were made: false if no augmenting path is left or ctxDone fired
// (aborted is then set).
func (a *assigner) grow(count int) bool {
	for ; count > 0; count-- {
		t := a.shortestPath()
		if t == -1 {
			return false
		}
		a.augment(t)
	}
	return true
}

// shortestPath runs one Dijkstra from every free left node over the
// reduced costs c(u,v) − y[u] − z[v] ≥ 0, stops at the nearest free
// right node and updates the potentials so the path found and every
// matched edge are tight. It returns that right node, or -1 if none
// is reachable or ctxDone fired.
func (a *assigner) shortestPath() int {
	a.reset()
	for u, v := range a.matchL {
		if v == -1 {
			a.distL[u] = 0
			a.touchedL = append(a.touchedL, u)
			if a.relax(u) {
				return -1
			}
		}
	}
	target := -1
	for {
		v := a.pop()
		if v == -1 {
			return -1
		}
		u := a.matchR[v]
		if u == -1 {
			target = v
			break
		}
		a.distL[u] = a.distR[v] // the matched edge is tight
		a.touchedL = append(a.touchedL, u)
		if a.relax(u) {
			return -1
		}
	}
	d := a.distR[target]
	for _, u := range a.touchedL {
		if a.distL[u] < d {
			a.y[u] += d - a.distL[u]
		}
	}
	for _, v := range a.settled {
		if a.distR[v] < d {
			a.z[v] -= d - a.distR[v]
		}
	}
	return target
}

// reset returns the queue and distances the last Dijkstra touched to
// their fresh state under the current potentials. A fresh queue has
// no offer and no tentative distance anywhere, so every best it set
// goes back to noOffer, each walk up stopping at a node already
// there; lo changed only on the settled leaves, and is restored by
// point updates that stop where the minimum holds.
func (a *assigner) reset() {
	for _, u := range a.touchedL {
		a.distL[u] = matchInf
	}
	for _, v := range a.touchedR {
		a.distR[v] = noOffer
		a.clearBest(a.size + v)
	}
	for _, x := range a.offered {
		a.offer[x] = noOffer
		a.clearBest(x)
	}
	for _, v := range a.settled {
		x := a.size + v
		a.lo[x] = -a.z[v]
		for x >>= 1; x > 0; x >>= 1 {
			lo := min(a.lo[2*x], a.lo[2*x+1])
			if lo == a.lo[x] {
				break
			}
			a.lo[x] = lo
		}
	}
	a.work += len(a.touchedL) + len(a.touchedR) + len(a.settled) + len(a.offered)
	a.touchedL, a.touchedR = a.touchedL[:0], a.touchedR[:0]
	a.settled, a.offered = a.settled[:0], a.offered[:0]
}

// clearBest sets best to noOffer at tree node x and up its ancestors
// until one already holds it. Every best is the least of what lies at
// or below it, so a node at noOffer was either cleared by an earlier
// walk, which went on up, or never took a value from x.
func (a *assigner) clearBest(x int) {
	for ; x > 0 && a.best[x] != noOffer; x >>= 1 {
		a.best[x] = noOffer
	}
}

// relax offers every right node left node u reaches a distance: its
// cost-0 row's nodes at cost 0 and its cost-1 row's (or, with later
// set, every later node's) at cost 1. It reports whether ctxDone
// fired, polling once pollWork work has built up.
func (a *assigner) relax(u int) bool {
	base := a.distL[u] - a.y[u]
	for cost, rows := range [2][]uint64{a.zero, a.one} {
		if cost == 1 && a.later {
			a.offerFrom(u+1, base+1, u)
			break
		}
		a.work += a.words
		for wi, word := range rows[u*a.words : (u+1)*a.words] {
			a.work += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				v := wi<<6 | bits.TrailingZeros64(word)
				if nd := base + cost - a.z[v]; nd < a.distR[v] {
					if a.distR[v] == noOffer {
						a.touchedR = append(a.touchedR, v)
					}
					x := a.size + v
					a.distR[v], a.prevR[v], a.best[x] = nd, u, min(a.best[x], nd)
					a.fix(x>>1, false)
				}
			}
		}
	}
	if a.work >= pollWork {
		a.work = 0
		select {
		case <-a.ctxDone: // a nil channel never fires
			a.aborted = true
		default:
		}
	}
	return a.aborted
}

// offerFrom offers every right node from l on the distance c − z[v],
// made by left node u, at the O(log N) tree nodes covering them.
func (a *assigner) offerFrom(l, c, u int) {
	if l >= a.n {
		return
	}
	for x, r := l+a.size, 2*a.size; x < r; x, r = x>>1, r>>1 {
		if x&1 == 1 {
			if c < a.offer[x] {
				if a.offer[x] == noOffer {
					a.offered = append(a.offered, x)
				}
				a.offer[x], a.from[x] = c, u
				a.best[x] = min(a.best[x], c+a.lo[x])
			}
			x++
		}
	}
	a.fix((l+a.size)>>1, true) // the covering nodes hang off l's path
}

// fix recomputes lo and best at tree node x and its ancestors. Unless
// all is set, it stops at a node left as it was: only x's subtree
// changed, so nothing above it has.
func (a *assigner) fix(x int, all bool) {
	for ; x > 0; x >>= 1 {
		lo := min(a.lo[2*x], a.lo[2*x+1])
		best := min(a.best[2*x], a.best[2*x+1], a.offer[x]+lo)
		if !all && lo == a.lo[x] && best == a.best[x] {
			return
		}
		a.lo[x], a.best[x] = lo, best
	}
}

// pop settles the right node of least tentative distance, recording
// its distance and the left node it is reached from, and returns it,
// or -1 if every reachable node is settled.
func (a *assigner) pop() int {
	d := a.best[1]
	if d > noOffer/2 {
		return -1
	}
	x := 1
	for x < a.size && a.offer[x]+a.lo[x] != d {
		x <<= 1
		if a.best[x] != d {
			x++
		}
	}
	if a.offer[x]+a.lo[x] == d { // x's own offer, to its least −z leaf
		u := a.from[x]
		for x < a.size {
			x <<= 1
			if a.lo[x] != a.lo[x>>1] {
				x++
			}
		}
		a.prevR[x-a.size] = u
	}
	v := x - a.size
	if a.distR[v] == noOffer {
		a.touchedR = append(a.touchedR, v)
	}
	a.settled = append(a.settled, v)
	a.distR[v], a.lo[x], a.best[x] = d, noOffer, noOffer
	a.fix(x>>1, false)
	return v
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
