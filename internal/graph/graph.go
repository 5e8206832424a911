// Package graph provides the small directed-graph substrate used by the
// distance-graph model and the path-cover algorithms: adjacency storage
// with labelled nodes, edge attributes, reachability helpers, and DOT
// export for visualization (Figure 1 of the paper is such a graph).
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// Digraph is a directed graph over nodes 0..N-1 with optional string
// labels and integer edge weights. The zero value is an empty graph;
// add nodes with AddNode or construct with New.
type Digraph struct {
	labels []string
	adj    [][]Edge // outgoing edges per node, kept sorted by target
	in     []int    // in-degree per node
	edges  int
}

// Edge is a directed edge to a target node with an integer weight
// (the address distance in the distance-graph application).
type Edge struct {
	To     int
	Weight int
}

// New returns a digraph with n unlabelled nodes.
func New(n int) *Digraph {
	return &Digraph{labels: make([]string, n), adj: make([][]Edge, n), in: make([]int, n)}
}

// AddNode appends a node with the given label and returns its index.
func (g *Digraph) AddNode(label string) int {
	g.labels = append(g.labels, label)
	g.adj = append(g.adj, nil)
	g.in = append(g.in, 0)
	return len(g.labels) - 1
}

// N returns the number of nodes.
func (g *Digraph) N() int { return len(g.labels) }

// E returns the number of edges.
func (g *Digraph) E() int { return g.edges }

// Label returns node i's label.
func (g *Digraph) Label(i int) string { return g.labels[i] }

// SetLabel sets node i's label.
func (g *Digraph) SetLabel(i int, label string) { g.labels[i] = label }

// AddEdge inserts a directed edge u->v with the given weight. Duplicate
// edges (same u,v) are rejected with an error; self-loops are allowed
// (they arise as wrap edges of singleton paths). The adjacency list
// stays sorted by target via positional insertion: every call binary
// searches the list for the insertion point, which doubles as the
// duplicate check.
func (g *Digraph) AddEdge(u, v, weight int) error {
	if u < 0 || u >= g.N() || v < 0 || v >= g.N() {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.N())
	}
	es := g.adj[u]
	k := sort.Search(len(es), func(i int) bool { return es[i].To >= v })
	if k < len(es) && es[k].To == v {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	es = append(es, Edge{})
	copy(es[k+1:], es[k:])
	es[k] = Edge{To: v, Weight: weight}
	g.adj[u] = es
	g.in[v]++
	g.edges++
	return nil
}

// HasEdge reports whether edge u->v exists.
func (g *Digraph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.N() {
		return false
	}
	es := g.adj[u]
	k := sort.Search(len(es), func(i int) bool { return es[i].To >= v })
	return k < len(es) && es[k].To == v
}

// Weight returns the weight of edge u->v and whether it exists.
func (g *Digraph) Weight(u, v int) (int, bool) {
	if u < 0 || u >= g.N() {
		return 0, false
	}
	es := g.adj[u]
	k := sort.Search(len(es), func(i int) bool { return es[i].To >= v })
	if k < len(es) && es[k].To == v {
		return es[k].Weight, true
	}
	return 0, false
}

// Out returns node u's outgoing edges (shared slice; callers must not
// mutate it).
func (g *Digraph) Out(u int) []Edge { return g.adj[u] }

// OutDegree returns the number of outgoing edges of u.
func (g *Digraph) OutDegree(u int) int { return len(g.adj[u]) }

// InDegree returns the number of incoming edges of v.
func (g *Digraph) InDegree(v int) int { return g.in[v] }

// Successors returns the targets of u's outgoing edges in ascending
// order (a fresh slice).
func (g *Digraph) Successors(u int) []int {
	out := make([]int, len(g.adj[u]))
	for i, e := range g.adj[u] {
		out[i] = e.To
	}
	return out
}

// IsDAG reports whether the graph has no directed cycle (self-loops
// count as cycles).
func (g *Digraph) IsDAG() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, g.N())
	var visit func(u int) bool
	visit = func(u int) bool {
		color[u] = grey
		for _, e := range g.adj[u] {
			switch color[e.To] {
			case grey:
				return false
			case white:
				if !visit(e.To) {
					return false
				}
			}
		}
		color[u] = black
		return true
	}
	for u := 0; u < g.N(); u++ {
		if color[u] == white && !visit(u) {
			return false
		}
	}
	return true
}

// TopoSort returns a topological order of the nodes, or an error if the
// graph has a cycle.
func (g *Digraph) TopoSort() ([]int, error) {
	indeg := make([]int, g.N())
	copy(indeg, g.in)
	queue := make([]int, 0, g.N())
	for u := 0; u < g.N(); u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	order := make([]int, 0, g.N())
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, e := range g.adj[u] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != g.N() {
		return nil, fmt.Errorf("graph: not a DAG (%d of %d nodes ordered)", len(order), g.N())
	}
	return order, nil
}

// IsPath reports whether the node sequence is a directed path in g
// (every consecutive pair connected by an edge).
func (g *Digraph) IsPath(nodes []int) bool {
	for k := 1; k < len(nodes); k++ {
		if !g.HasEdge(nodes[k-1], nodes[k]) {
			return false
		}
	}
	return true
}

// DOT renders the graph in Graphviz DOT syntax with the given graph
// name. Node labels default to the node index when empty.
func (g *Digraph) DOT(name string) string {
	return g.DOTFunc(name, g.Label)
}

// DOTFunc renders the graph like DOT but derives node labels from the
// given function instead of the stored labels. Builders that skip
// SetLabel on hot paths use it to render display labels on demand.
func (g *Digraph) DOTFunc(name string, label func(i int) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %s {\n", sanitizeDOTName(name))
	b.WriteString("  rankdir=LR;\n  node [shape=circle];\n")
	for i := 0; i < g.N(); i++ {
		l := label(i)
		if l == "" {
			l = fmt.Sprintf("%d", i)
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", i, l)
	}
	for u := 0; u < g.N(); u++ {
		for _, e := range g.adj[u] {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%+d\"];\n", u, e.To, e.Weight)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func sanitizeDOTName(name string) string {
	if name == "" {
		return "G"
	}
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Clone deep-copies the graph.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		labels: append([]string(nil), g.labels...),
		adj:    make([][]Edge, len(g.adj)),
		in:     append([]int(nil), g.in...),
		edges:  g.edges,
	}
	for i, es := range g.adj {
		c.adj[i] = append([]Edge(nil), es...)
	}
	return c
}
