package merge

import (
	"context"

	"dspaddr/internal/model"
	"dspaddr/internal/pathcover"
)

// Optimal is the exact phase 2 for the intra-iteration objective: it
// ignores the incoming path set and returns a minimum-cost partition
// of the accesses into at most k paths, computed by
// pathcover.MinCostCover as a cheapest matching of program-ordered
// arcs. With wrap set (which the matching does not model) it falls
// back to the paper's greedy heuristic.
type Optimal struct{}

// Name implements Strategy.
func (Optimal) Name() string { return "optimal" }

// Reduce implements Strategy.
func (Optimal) Reduce(paths []model.Path, pat model.Pattern, m int, wrap bool, k int) []model.Path {
	// Without a deadline only an invalid pattern fails (Reduce validates).
	out, _ := optimalReduce(context.Background(), paths, pat, m, wrap, k, nil)
	return out
}

// optimalReduce is Optimal's solve behind Reduce and ReduceContext,
// with its distance graph and assignment state drawn from sc (nil for
// a transient scratch). On cancellation it returns ctx's error.
func optimalReduce(ctx context.Context, paths []model.Path, pat model.Pattern, m int, wrap bool, k int, sc *Scratch) ([]model.Path, error) {
	if wrap {
		return greedyReduce(ctx, paths, pat, m, wrap, k, sc)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	if err := sc.dg.Rebuild(pat, m); err != nil {
		return nil, err
	}
	out, _, err := pathcover.MinCostCover(ctx, &sc.dg, k, &sc.cover)
	return out, err
}
