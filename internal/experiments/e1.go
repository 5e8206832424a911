// Package experiments regenerates every table and figure of the
// paper's evaluation, plus the ablations listed in cmd/rcabench's
// experiment index. Each experiment returns printable tables
// (internal/stats) so the CLI and the benchmarks share one source of
// truth.
package experiments

import (
	"fmt"

	"dspaddr/internal/distgraph"
	"dspaddr/internal/model"
	"dspaddr/internal/pathcover"
	"dspaddr/internal/stats"
)

// Fig1Result reproduces Figure 1: the distance-graph model of the
// example loop of Section 2 under M = 1.
type Fig1Result struct {
	// Pattern is the example access pattern.
	Pattern model.Pattern
	// DOT is the Graphviz rendering of the graph.
	DOT string
	// Edges lists the zero-cost edges (1-based access indices).
	Edges [][2]int
	// KTilde is the minimum zero-cost path cover size (phase 1).
	KTilde int
	// Cover is the computed minimal cover.
	Cover []model.Path
}

// RunFig1 builds the Figure 1 graph and its minimal path cover.
func RunFig1() (*Fig1Result, error) {
	pat := model.PaperExample()
	dg, err := distgraph.Build(pat, 1)
	if err != nil {
		return nil, err
	}
	cover := pathcover.MinCover(dg, false, nil)
	res := &Fig1Result{
		Pattern: pat,
		DOT:     dg.DOT("figure1"),
		KTilde:  cover.K(),
		Cover:   cover.Paths,
	}
	for _, e := range dg.Edges() {
		res.Edges = append(res.Edges, [2]int{e[0] + 1, e[1] + 1})
	}
	return res, nil
}

// Table renders the edge list and cover as a table.
func (r *Fig1Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 1 — distance graph of %s (M=1): %d zero-cost edges, K~=%d", r.Pattern, len(r.Edges), r.KTilde),
		"edge", "from", "to", "distance")
	for i, e := range r.Edges {
		d := r.Pattern.Offsets[e[1]-1] - r.Pattern.Offsets[e[0]-1]
		t.AddRowf(fmt.Sprintf("e%d", i+1), fmt.Sprintf("a%d", e[0]), fmt.Sprintf("a%d", e[1]), d)
	}
	return t
}
