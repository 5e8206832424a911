package model

// Indexed (modify-register) cost model. Real AGUs (TI C5x AR0-indexed
// modes, Motorola 56k Nx registers) extend the immediate post-modify
// range with a small file of index registers: an address-register
// update whose distance equals ±(an index register's value) is also
// performed in parallel, at zero cost. The paper's model is the
// special case of an empty index file. The indexed model keeps the
// unit cost for everything else, so all structural results (path
// cover, merging) carry over with the wider zero-cost predicate.

// TransitionCostIndexed returns the cost of an address-register update
// by distance: 0 if |distance| <= modifyRange or |distance| equals one
// of the index-register values, 1 otherwise.
func TransitionCostIndexed(distance, modifyRange int, index []int) int {
	if distance < 0 {
		distance = -distance
	}
	if distance <= modifyRange || len(index) > 0 && matchesIndex(distance, index) {
		return 0
	}
	return 1
}

// matchesIndex reports whether the non-negative distance equals the
// magnitude of one of the index values.
func matchesIndex(distance int, index []int) bool {
	for _, v := range index {
		if v < 0 {
			v = -v
		}
		if distance == v {
			return true
		}
	}
	return false
}

// CostIndexed is Path.Cost under the indexed cost model.
func (p Path) CostIndexed(pat Pattern, modifyRange int, index []int, wrap bool) int {
	if len(p) == 0 {
		return 0
	}
	cost := 0
	for k := 1; k < len(p); k++ {
		cost += TransitionCostIndexed(pat.Distance(p[k-1], p[k]), modifyRange, index)
	}
	if wrap {
		cost += TransitionCostIndexed(pat.WrapDistance(p[len(p)-1], p[0]), modifyRange, index)
	}
	return cost
}

// CostIndexed is Assignment.Cost under the indexed cost model.
func (a Assignment) CostIndexed(pat Pattern, modifyRange int, index []int, wrap bool) int {
	total := 0
	for _, p := range a.Paths {
		total += p.CostIndexed(pat, modifyRange, index, wrap)
	}
	return total
}
