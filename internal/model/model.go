// Package model defines the core data types of the register-constrained
// address computation problem from Basu, Leupers, Marwedel:
// "Register-Constrained Address Computation in DSP Programs" (DATE 1998).
//
// A DSP loop accesses array elements A[i+d] where i is the loop variable
// and d a constant offset. The access pattern of one loop iteration is the
// ordered sequence of those offsets. An address generation unit (AGU)
// holds K address registers; a register used for two consecutive accesses
// is updated by their address distance, at zero cost if the distance lies
// within the modify range M and at the cost of one extra instruction
// otherwise. The optimization problem is the allocation of accesses to
// registers minimizing the number of unit-cost updates per iteration.
package model

import (
	"fmt"
	"sort"
	"strings"
)

// Access is a single array reference in the loop body.
type Access struct {
	// Array names the accessed array. The empty string is treated as a
	// distinct (default) array.
	Array string
	// Offset is the constant displacement d of the reference A[i+d]
	// relative to the loop variable.
	Offset int
	// Write marks a store (assignment target); reads are the default.
	// Addressing cost is identical for loads and stores — the flag
	// only selects the generated data operation.
	Write bool
}

// Pattern is the ordered access sequence of one array within one loop
// iteration, together with the loop stride. Offsets[k] is the offset of
// the k-th access in program order.
type Pattern struct {
	// Array is the accessed array's name (informational).
	Array string
	// Stride is the increment of the loop variable per iteration.
	Stride int
	// Offsets holds the access offsets in program order.
	Offsets []int
}

// NewPattern returns a Pattern over the given offsets with stride 1,
// the common case in the paper's examples.
func NewPattern(offsets ...int) Pattern {
	return Pattern{Array: "A", Stride: 1, Offsets: offsets}
}

// PaperExample returns the seven-access example pattern of the paper's
// Section 2 (offsets 1, 0, 2, -1, 1, 0, -2 with stride 1). With modify
// range M=1 its distance graph is the paper's Figure 1.
func PaperExample() Pattern {
	return NewPattern(1, 0, 2, -1, 1, 0, -2)
}

// N returns the number of accesses per iteration.
func (p Pattern) N() int { return len(p.Offsets) }

// Distance returns the intra-iteration address distance from access i to
// access j, i.e. the post-modify amount a register needs after serving
// access i so that it points at access j of the same iteration.
func (p Pattern) Distance(i, j int) int { return p.Offsets[j] - p.Offsets[i] }

// WrapDistance returns the inter-iteration address distance from access i
// (iteration t) to access j (iteration t+1): the loop variable advances by
// Stride, so the target address is Offsets[j]+Stride relative to the
// current iteration's frame.
func (p Pattern) WrapDistance(i, j int) int {
	return p.Offsets[j] + p.Stride - p.Offsets[i]
}

// MaxAccesses caps the accesses of one pattern. Phase 1 holds an
// N×N bit matrix of the distance graph per solver, so the cap keeps it
// at most 2 MiB.
const MaxAccesses = 4096

// Validate reports whether the pattern is well-formed: at least one
// and at most MaxAccesses accesses. A non-zero stride is not required.
func (p Pattern) Validate() error {
	if len(p.Offsets) == 0 {
		return fmt.Errorf("model: pattern %q has no accesses", p.Array)
	}
	if len(p.Offsets) > MaxAccesses {
		return fmt.Errorf("model: pattern %q has %d accesses, more than the %d allowed", p.Array, len(p.Offsets), MaxAccesses)
	}
	return nil
}

// String renders the pattern as e.g. "A: [+1 0 +2 -1 +1 0 -2] stride 1".
func (p Pattern) String() string {
	var b strings.Builder
	name := p.Array
	if name == "" {
		name = "<anon>"
	}
	fmt.Fprintf(&b, "%s: [", name)
	for k, d := range p.Offsets {
		if k > 0 {
			b.WriteByte(' ')
		}
		if d > 0 {
			fmt.Fprintf(&b, "+%d", d)
		} else {
			fmt.Fprintf(&b, "%d", d)
		}
	}
	fmt.Fprintf(&b, "] stride %d", p.Stride)
	return b.String()
}

// LoopSpec describes a complete counted loop over one induction variable
// with a body consisting of array accesses in program order. It is the
// lowering target of the frontend parser and the input to multi-array
// allocation.
type LoopSpec struct {
	// Var is the induction variable name (informational).
	Var string
	// From and To delimit the iteration range (inclusive), as in
	// for (i = From; i <= To; i += Stride).
	From, To int
	// Stride is the induction step per iteration; must be positive.
	Stride int
	// Accesses lists the body's array references in program order.
	Accesses []Access
}

// Iterations returns the number of iterations the loop executes.
func (l LoopSpec) Iterations() int {
	if l.Stride <= 0 || l.To < l.From {
		return 0
	}
	return (l.To-l.From)/l.Stride + 1
}

// Validate checks structural sanity of the loop.
func (l LoopSpec) Validate() error {
	if l.Stride <= 0 {
		return fmt.Errorf("model: loop stride must be positive, got %d", l.Stride)
	}
	if len(l.Accesses) == 0 {
		return fmt.Errorf("model: loop has no array accesses")
	}
	return nil
}

// Arrays returns the distinct array names referenced by the loop, in
// first-appearance order.
func (l LoopSpec) Arrays() []string {
	seen := make(map[string]bool)
	var names []string
	for _, a := range l.Accesses {
		if !seen[a.Array] {
			seen[a.Array] = true
			names = append(names, a.Array)
		}
	}
	return names
}

// Patterns splits the loop body into one Pattern per referenced array,
// preserving program order within each array. The second return value
// maps each pattern position back to the index of the originating access
// in l.Accesses (patternToLoop[arrayIdx][k]).
func (l LoopSpec) Patterns() ([]Pattern, [][]int) {
	order := l.Arrays()
	idx := make(map[string]int, len(order))
	for i, name := range order {
		idx[name] = i
	}
	pats := make([]Pattern, len(order))
	back := make([][]int, len(order))
	for i, name := range order {
		pats[i] = Pattern{Array: name, Stride: l.Stride}
	}
	for ai, a := range l.Accesses {
		i := idx[a.Array]
		pats[i].Offsets = append(pats[i].Offsets, a.Offset)
		back[i] = append(back[i], ai)
	}
	return pats, back
}

// AGUSpec describes the address generation unit of the target DSP.
type AGUSpec struct {
	// Registers is K, the number of physical address registers.
	Registers int
	// ModifyRange is M, the largest |d| for which a post-modify by d is
	// free (performed in parallel with the data-path operation).
	ModifyRange int
}

// Validate checks the AGU description.
func (s AGUSpec) Validate() error {
	if s.Registers < 1 {
		return fmt.Errorf("model: AGU needs at least one address register, got %d", s.Registers)
	}
	if s.ModifyRange < 0 {
		return fmt.Errorf("model: AGU modify range must be non-negative, got %d", s.ModifyRange)
	}
	return nil
}

// String renders the AGU spec as "AGU{K=4, M=1}".
func (s AGUSpec) String() string {
	return fmt.Sprintf("AGU{K=%d, M=%d}", s.Registers, s.ModifyRange)
}

// TransitionCost returns the cost of updating an address register by the
// given distance: 0 if |distance| <= M (parallel post-modify), 1
// otherwise (one extra address arithmetic instruction).
func TransitionCost(distance, modifyRange int) int {
	if distance < 0 {
		distance = -distance
	}
	if distance <= modifyRange {
		return 0
	}
	return 1
}

// OffsetSpan returns the smallest and largest offset of the pattern.
// It panics on an empty pattern.
func (p Pattern) OffsetSpan() (min, max int) {
	if len(p.Offsets) == 0 {
		panic("model: OffsetSpan of empty pattern")
	}
	min, max = p.Offsets[0], p.Offsets[0]
	for _, d := range p.Offsets[1:] {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max
}

// DistinctOffsets returns the sorted distinct offsets of the pattern.
func (p Pattern) DistinctOffsets() []int {
	seen := make(map[int]bool, len(p.Offsets))
	var out []int
	for _, d := range p.Offsets {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Ints(out)
	return out
}
