// Per-worker solve scratch for phase 1 (and MinCostCover's exact phase
// 2). A Scratch owns every reusable workspace the cover computations
// need — the Hopcroft-Karp matcher state, the assignment solver's
// state and wrap bit matrix, the flat DAG-cover path store and the
// branch-and-bound search state — so a worker serving a stream of
// requests stops paying a dozen heap allocations per solve.
//
// A Scratch is not safe for concurrent use. Covers produced through a
// Scratch may alias its buffers and are valid only until its next use;
// callers that retain paths must clone them (Cover.Assignment already
// does).

package pathcover

import (
	"context"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
	"dspaddr/internal/obs"
)

// Scratch is the reusable phase-1 workspace. The zero value is ready
// to use.
type Scratch struct {
	match    matcher
	assign   assigner
	dagFlat  []int
	dagPaths []model.Path
	bb       bbSearch
}

// MinCoverCtx is MinCover with cooperative cancellation and an
// optional reusable scratch. The branch-and-bound search checks ctx at
// node-expansion granularity (every few hundred explored states) and
// abandons the solve with ctx's error when it fires, so a canceled or
// timed-out request releases its worker instead of occupying it until
// the full search completes. A nil scratch uses a transient one.
//
// On success the returned cover is byte-identical to MinCover's for
// the same inputs — the cancellation checks never alter the explored
// tree or the node counts.
//
// When ctx carries an obs.Trace, the computation records a "cover"
// span with node/prune/path counts and an exact/truncated outcome;
// without one the extra cost is a nil check.
func MinCoverCtx(ctx context.Context, dg *distgraph.Graph, wrap bool, opts *Options, sc *Scratch) (Cover, error) {
	sp := obs.FromContext(ctx).StartSpan("cover")
	c, err := minCoverCtx(ctx, dg, wrap, opts, sc)
	if err != nil {
		sp.Note("aborted").End()
		return c, err
	}
	sp.Attr("nodes", int64(c.Nodes)).Attr("pruned", int64(c.Pruned)).Attr("paths", int64(len(c.Paths)))
	if c.Exact {
		sp.Note("exact")
	} else {
		sp.Note("truncated")
	}
	sp.End()
	return c, err
}

func minCoverCtx(ctx context.Context, dg *distgraph.Graph, wrap bool, opts *Options, sc *Scratch) (Cover, error) {
	if err := ctx.Err(); err != nil {
		return Cover{}, err
	}
	if sc == nil {
		sc = &Scratch{}
	}
	if !wrap {
		// Nodes counts one unit of search effort per access so the DAG
		// case reports work comparably with the wrap search instead of
		// a constant 0.
		return Cover{Paths: sortPaths(sc.minCoverDAG(dg)), ZeroCost: true, Exact: true, Nodes: dg.N()}, nil
	}
	budget := DefaultNodeBudget
	if opts != nil && opts.NodeBudget > 0 {
		budget = opts.NodeBudget
	}

	matchL, matchR, size := sc.match.run(intraBipartite(dg))
	lb := dg.N() - size

	// The greedy seed often already meets the matching lower bound;
	// checking it first skips the assignment bound and the search
	// initialization entirely on that fast path.
	var seed []model.Path
	if greedy := GreedyCover(dg, true); coverZeroCost(dg, greedy, true) {
		seed = greedy
		if len(greedy) == lb {
			return Cover{Paths: sortPaths(seed), ZeroCost: true, Exact: true, Nodes: dg.N()}, nil
		}
	}

	alb, ok, aborted := sc.assign.bound(dg, matchL, matchR, ctx.Done())
	if aborted {
		return Cover{}, ctx.Err()
	}
	if !ok {
		// No perfect assignment, so no zero-cost cover exists; fall
		// back to the intra-iteration optimum.
		return Cover{Paths: sortPaths(sc.minCoverDAG(dg)), Exact: true, Nodes: dg.N()}, nil
	}
	lb = max(lb, alb)
	if seed != nil && len(seed) == lb {
		return Cover{Paths: sortPaths(seed), ZeroCost: true, Exact: true, Nodes: dg.N()}, nil
	}

	s := &sc.bb
	s.init(dg, budget, ctx.Done())
	s.lb = lb
	if seed != nil {
		s.best = len(seed)
	}
	s.run()
	if s.aborted {
		return Cover{}, ctx.Err()
	}

	best := s.bestCover()
	if best == nil {
		best = seed // the search did not improve on the greedy seed
	}
	if best == nil {
		// No zero-cost cover exists; fall back to the intra-iteration
		// optimum. The search completing within budget proves
		// infeasibility.
		return Cover{
			Paths:    sortPaths(sc.minCoverDAG(dg)),
			ZeroCost: false,
			Exact:    !s.exhausted,
			Nodes:    s.nodes,
			Pruned:   s.pruned,
		}, nil
	}
	return Cover{
		Paths:    sortPaths(best),
		ZeroCost: true,
		Exact:    !s.exhausted || s.best == lb,
		Nodes:    s.nodes,
		Pruned:   s.pruned,
	}, nil
}
