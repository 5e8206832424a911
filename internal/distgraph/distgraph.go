// Package distgraph builds the paper's distance-graph model G = (V, E)
// of an array access pattern: one node per access, and an edge
// (a_i, a_j) with i < j whenever the address of a_j can be derived from
// the address of a_i by a zero-cost post-modify, i.e. the address
// distance lies within the AGU's modify range M. Figure 1 of the paper
// is the distance graph of the example pattern (offsets 1,0,2,-1,1,0,-2)
// for M = 1.
//
// The edges are stored as a bit matrix: row i holds the accesses j > i
// reachable from i at zero cost, one bit each, so the phase-1 matcher
// walks a row with word operations and a build costs O(N·⌈N/64⌉) word
// operations instead of one cost test per access pair.
//
// Inter-iteration ("wrap") relations — the update from a register's
// last access in iteration t to its first access in iteration t+1 —
// are exposed as predicates (and, on request, as a second bit matrix)
// rather than materialized edges, because they depend on which
// accesses end up first/last on a register.
package distgraph

import (
	"fmt"
	"math/bits"
	"slices"

	"dspaddr/internal/graph"
	"dspaddr/internal/model"
)

// Graph couples a pattern with its zero-cost distance graph for a given
// modify range (and, optionally, a set of index-register values that
// widen the zero-cost predicate — see model.TransitionCostIndexed).
type Graph struct {
	// Pattern is the access pattern the graph models.
	Pattern model.Pattern
	// M is the AGU modify range used to classify transitions.
	M int
	// Index holds the AGU's index-register values; an update matching
	// ±value is also zero-cost. Empty for the paper's base model.
	Index []int

	// words is the row width ⌈N/64⌉ of the bit matrices.
	words int
	// succ is the intra-iteration zero-cost graph, N rows of words
	// words: bit j of row i is set iff i < j and the update from i to
	// j is free. It is a DAG by construction.
	succ []uint64
	// order lists the accesses sorted by offset, then index; the
	// window build walks it.
	order []int
	// win is the window build's one-row scratch.
	win []uint64
	// wide is set when an offset or index value is too large for the
	// window build's difference arithmetic; rows are then filled pair
	// by pair with the exact cost predicate.
	wide bool
}

// Build constructs the distance graph of pat for modify range m.
func Build(pat model.Pattern, m int) (*Graph, error) {
	return BuildIndexed(pat, m, nil)
}

// BuildIndexed constructs the distance graph under the indexed cost
// model: updates within the modify range or matching ±(an index value)
// are zero-cost edges.
func BuildIndexed(pat model.Pattern, m int, index []int) (*Graph, error) {
	dg := &Graph{Index: append([]int(nil), index...)}
	if err := dg.Rebuild(pat, m); err != nil {
		return nil, err
	}
	return dg, nil
}

// Rebuild reconstructs the graph in place for a new pattern and modify
// range, reusing the bit-matrix storage of the previous build (the
// graph's Index set is kept). It is the allocation-lean form of Build
// used by per-worker solver scratch: one Graph value serves a stream
// of requests instead of being reallocated per solve. model.MaxAccesses
// bounds the matrix at 2 MiB.
func (dg *Graph) Rebuild(pat model.Pattern, m int) error {
	if err := pat.Validate(); err != nil {
		return err
	}
	if m < 0 {
		return fmt.Errorf("distgraph: modify range must be non-negative, got %d", m)
	}
	n := pat.N()
	dg.Pattern = pat
	dg.M = m
	dg.words = (n + 63) / 64
	dg.succ = slices.Grow(dg.succ[:0], n*dg.words)[:n*dg.words]
	dg.win = slices.Grow(dg.win[:0], dg.words)[:dg.words]
	lo, hi := pat.OffsetSpan()
	dg.wide = tooWide(lo) || tooWide(hi) || slices.ContainsFunc(dg.Index, tooWide)
	dg.sortAccesses(lo, hi)
	dg.fill(dg.succ, dg.win, 0, false)
	return nil
}

// sortAccesses fills order with the accesses sorted by offset, then
// index; lo and hi are the pattern's least and greatest offsets.
// Validate caps N at model.MaxAccesses = 2^12, so an index fits the
// low 12 bits of a key whose high bits hold offset − lo: sorting those
// keys as plain ints (no comparator call per comparison) gives the
// same order whenever the offset span fits the remaining bits.
func (dg *Graph) sortAccesses(lo, hi int) {
	off := dg.Pattern.Offsets
	dg.order = slices.Grow(dg.order[:0], len(off))[:len(off)]
	if !dg.wide && hi-lo < 1<<(63-indexBits) {
		for i, v := range off {
			dg.order[i] = (v-lo)<<indexBits | i
		}
		slices.Sort(dg.order)
		for k := range dg.order {
			dg.order[k] &= 1<<indexBits - 1
		}
		return
	}
	for i := range dg.order {
		dg.order[i] = i
	}
	slices.SortFunc(dg.order, func(a, b int) int {
		if off[a] != off[b] {
			if off[a] < off[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
}

// indexBits holds any access index below model.MaxAccesses; the
// unsigned constant below stops compiling if the cap outgrows it.
const indexBits = 12

const _ uint = 1<<indexBits - model.MaxAccesses

// windowLimit bounds the offsets, index values and stride the window
// build accepts: with every magnitude at most 2^60, all the offset
// differences it forms fit an int without wrapping.
const windowLimit = 1 << 60

func tooWide(v int) bool { return v > windowLimit || v < -windowLimit }

// fill writes one bit-matrix row per access u into dst: the accesses j
// whose offset is zero-cost away from center offsets[u]+shift, keeping
// only j > u (intra) or only j <= u (wrap). Centers are visited in
// offset order, so the accesses within ±M of the center form a window
// of the sorted order whose ends only move forward; each access enters
// and leaves the window once, and each row costs O(words) on top. win
// is one row of scratch.
func (dg *Graph) fill(dst, win []uint64, shift int, wrap bool) {
	clear(dst)
	n, w, m := dg.N(), dg.words, dg.M
	off := dg.Pattern.Offsets
	if dg.wide || tooWide(shift) {
		for u := 0; u < n; u++ {
			row := dst[u*w : (u+1)*w]
			lo, hi := u+1, n
			if wrap {
				lo, hi = 0, u+1
			}
			for j := lo; j < hi; j++ {
				if model.TransitionCostIndexed(off[j]-(off[u]+shift), dg.M, dg.Index) == 0 {
					row[j>>6] |= 1 << (j & 63)
				}
			}
		}
		return
	}
	clear(win)
	lo, hi := 0, 0
	for k := 0; k < n; {
		v := off[dg.order[k]]
		c := v + shift
		for ; hi < n && off[dg.order[hi]]-c <= m; hi++ {
			j := dg.order[hi]
			win[j>>6] |= 1 << (j & 63)
		}
		for ; lo < hi && c-off[dg.order[lo]] > m; lo++ {
			j := dg.order[lo]
			win[j>>6] &^= 1 << (j & 63)
		}
		g := k
		for g < n && off[dg.order[g]] == v {
			g++
		}
		for _, u := range dg.order[k:g] {
			row := dst[u*w : (u+1)*w]
			copy(row, win)
			if len(dg.Index) > 0 {
				dg.markIndexed(row, c)
			}
			if wrap {
				row[u>>6] &= 2<<(u&63) - 1
				clear(row[u>>6+1:])
			} else {
				clear(row[:u>>6])
				row[u>>6] &= ^uint64(1) << (u & 63)
			}
		}
		k = g
	}
}

// markIndexed sets in row the accesses whose offset is ±(an index
// value) away from center c.
func (dg *Graph) markIndexed(row []uint64, c int) {
	off := dg.Pattern.Offsets
	for _, a := range dg.Index {
		if a < 0 {
			a = -a
		}
		if a <= dg.M {
			continue // already inside the window
		}
		for _, t := range [2]int{c - a, c + a} {
			k, _ := slices.BinarySearchFunc(dg.order, t, func(j, t int) int {
				if off[j] < t {
					return -1
				}
				if off[j] > t {
					return 1
				}
				return 0
			})
			for ; k < len(dg.order) && off[dg.order[k]] == t; k++ {
				j := dg.order[k]
				row[j>>6] |= 1 << (j & 63)
			}
		}
	}
}

// Words returns the width ⌈N/64⌉ of a bit-matrix row.
func (dg *Graph) Words() int { return dg.words }

// Succ returns the intra-iteration bit matrix: Words() words per
// access, bit j of row i set iff i < j and ZeroIntra(i, j). The slice
// aliases the graph's storage; callers must not modify it.
func (dg *Graph) Succ() []uint64 { return dg.succ }

// FillWrap writes the wrap bit matrix into dst, reusing its storage,
// and returns it: bit j of row i is set iff j <= i and ZeroWrap(i, j),
// the zero-cost loop-back from access i to an access no later than
// itself. It only reads the graph, so concurrent calls are safe.
func (dg *Graph) FillWrap(dst []uint64) []uint64 {
	n := len(dg.succ)
	dst = slices.Grow(dst[:0], n+dg.words)[:n+dg.words] // one spare row past the matrix is the window scratch
	dg.fill(dst[:n], dst[n:], -dg.Pattern.Stride, true)
	return dst[:n]
}

// LastSucc returns the largest j with ZeroIntra(v, j), or -1 if v has
// no zero-cost successor.
func (dg *Graph) LastSucc(v int) int {
	row := dg.succ[v*dg.words : (v+1)*dg.words]
	for w := len(row) - 1; w >= 0; w-- {
		if row[w] != 0 {
			return w<<6 | (63 - bits.LeadingZeros64(row[w]))
		}
	}
	return -1
}

// MustBuild is Build for known-good inputs; it panics on error. It is
// convenient for fixtures and examples.
func MustBuild(pat model.Pattern, m int) *Graph {
	g, err := Build(pat, m)
	if err != nil {
		panic(err)
	}
	return g
}

// NodeLabel renders the paper-style node label for access i, e.g.
// "a1: A[i+1]".
func NodeLabel(pat model.Pattern, i int) string {
	d := pat.Offsets[i]
	arr := pat.Array
	if arr == "" {
		arr = "A"
	}
	switch {
	case d > 0:
		return fmt.Sprintf("a%d: %s[i+%d]", i+1, arr, d)
	case d < 0:
		return fmt.Sprintf("a%d: %s[i%d]", i+1, arr, d)
	default:
		return fmt.Sprintf("a%d: %s[i]", i+1, arr)
	}
}

// N returns the number of accesses.
func (dg *Graph) N() int { return dg.Pattern.N() }

// ZeroIntra reports whether the intra-iteration transition i->j (i<j)
// is zero-cost.
func (dg *Graph) ZeroIntra(i, j int) bool {
	return model.TransitionCostIndexed(dg.Pattern.Distance(i, j), dg.M, dg.Index) == 0
}

// ZeroWrap reports whether the inter-iteration transition from access
// last (iteration t) to access first (iteration t+1) is zero-cost.
func (dg *Graph) ZeroWrap(last, first int) bool {
	return model.TransitionCostIndexed(dg.Pattern.WrapDistance(last, first), dg.M, dg.Index) == 0
}

// PathCost returns the number of unit-cost computations of the
// register subsequence p under the graph's cost model.
func (dg *Graph) PathCost(p model.Path, wrap bool) int {
	return p.CostIndexed(dg.Pattern, dg.M, dg.Index, wrap)
}

// PathIsZeroCost reports whether the register subsequence p incurs no
// unit-cost computation: all intra transitions zero and, if wrap is
// set, the loop-back transition too.
func (dg *Graph) PathIsZeroCost(p model.Path, wrap bool) bool {
	return dg.PathCost(p, wrap) == 0
}

// CoverIsZeroCost reports whether every path of the assignment is
// zero-cost under the graph's cost model.
func (dg *Graph) CoverIsZeroCost(a model.Assignment, wrap bool) bool {
	return a.CostIndexed(dg.Pattern, dg.M, dg.Index, wrap) == 0
}

// Digraph materializes the intra-iteration distance graph as a
// graph.Digraph whose edge weights are the signed distances. It is
// built on demand for display and analysis; the solve path reads the
// bit matrix.
func (dg *Graph) Digraph() *graph.Digraph {
	g := graph.New(dg.N())
	for _, e := range dg.Edges() {
		if err := g.AddEdge(e[0], e[1], dg.Pattern.Distance(e[0], e[1])); err != nil {
			panic(err) // Edges lists each pair once, in range
		}
	}
	return g
}

// DOT renders the intra-iteration distance graph in Graphviz syntax;
// the output for the paper's example pattern reproduces Figure 1.
// Node labels are derived from the pattern on demand.
func (dg *Graph) DOT(name string) string {
	return dg.Digraph().DOTFunc(name, func(i int) string { return NodeLabel(dg.Pattern, i) })
}

// EdgeCount returns the number of intra-iteration zero-cost edges.
func (dg *Graph) EdgeCount() int {
	e := 0
	for _, word := range dg.succ {
		e += bits.OnesCount64(word)
	}
	return e
}

// Edges lists all intra-iteration zero-cost edges as (from, to) pairs
// in lexicographic order.
func (dg *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < dg.N(); u++ {
		for w, word := range dg.succ[u*dg.words : (u+1)*dg.words] {
			for ; word != 0; word &= word - 1 {
				out = append(out, [2]int{u, w<<6 | bits.TrailingZeros64(word)})
			}
		}
	}
	return out
}
