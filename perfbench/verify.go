package main

import (
	"fmt"
	"slices"
)

// The benchmark's own copy of the answer wire schema; fields the
// verifier does not read are left out.
type wireAlloc struct {
	Array           string  `json:"array"`
	Offsets         []int   `json:"offsets"`
	Cost            int     `json:"cost"`
	RegistersUsed   int     `json:"registersUsed"`
	Registers       [][]int `json:"registers"`
	GlobalRegisters []int   `json:"globalRegisters"`
	CacheHit        bool    `json:"cacheHit"`
}

type wireJobResult struct {
	Error   string      `json:"error"`
	Results []wireAlloc `json:"results"`
}

// verifyJob checks one served answer against the job it answers and
// returns the served cost. It recomputes everything from the paper's
// model and never calls the allocator (internal/core, merge or
// pathcover), so an allocator bug cannot agree with itself here.
func verifyJob(j *Job, r *wireJobResult) (int, error) {
	if r.Error != "" {
		return 0, fmt.Errorf("job failed: %s", r.Error)
	}
	if j.Loop == "" {
		if len(r.Results) != 1 {
			return 0, fmt.Errorf("pattern job answered with %d results", len(r.Results))
		}
		a := &r.Results[0]
		if !slices.Equal(a.Offsets, j.Offsets) {
			return 0, fmt.Errorf("served offsets %v, asked %v", a.Offsets, j.Offsets)
		}
		if err := verifyAssignment(j.Offsets, j.Stride, j.K, j.M, j.Wrap, a.Registers, a.Cost); err != nil {
			return 0, err
		}
		return a.Cost, nil
	}
	// A loop answer has one entry per array. Registers are private to
	// an array, so the arrays together may use at most K, and their
	// loop-wide register numbers must not collide.
	if len(r.Results) != len(j.Arrays) {
		return 0, fmt.Errorf("loop job answered %d arrays, loop has %d", len(r.Results), len(j.Arrays))
	}
	total, used := 0, 0
	global := make(map[int]bool)
	for i, pat := range j.Arrays {
		a := &r.Results[i]
		if a.Array != pat.Array || !slices.Equal(a.Offsets, pat.Offsets) {
			return 0, fmt.Errorf("array %d served as %s%v, loop has %s%v", i, a.Array, a.Offsets, pat.Array, pat.Offsets)
		}
		if err := verifyAssignment(pat.Offsets, pat.Stride, j.K, j.M, j.Wrap, a.Registers, a.Cost); err != nil {
			return 0, fmt.Errorf("array %s: %w", pat.Array, err)
		}
		if len(a.GlobalRegisters) != len(a.Registers) {
			return 0, fmt.Errorf("array %s: %d global register numbers for %d registers", pat.Array, len(a.GlobalRegisters), len(a.Registers))
		}
		for _, g := range a.GlobalRegisters {
			if g < 0 || g >= j.K || global[g] {
				return 0, fmt.Errorf("array %s: global register %d out of range or shared", pat.Array, g)
			}
			global[g] = true
		}
		used += len(a.Registers)
		total += a.Cost
	}
	if used > j.K {
		return 0, fmt.Errorf("loop uses %d registers, K=%d", used, j.K)
	}
	return total, nil
}

// verifyAssignment checks a served register assignment under the
// paper's model: every access in exactly one register, each register
// serving its accesses in program order, at most k registers, and a
// cost equal to the number of register updates whose distance exceeds
// the modify range m — counting the loop-back update from a register's
// last access to its first access of the next iteration (stride
// further on) when wrap is set.
func verifyAssignment(offsets []int, stride, k, m int, wrap bool, regs [][]int, cost int) error {
	if len(regs) > k {
		return fmt.Errorf("%d registers used, K=%d", len(regs), k)
	}
	seen := make([]bool, len(offsets))
	covered, want := 0, 0
	for r, path := range regs {
		if len(path) == 0 {
			return fmt.Errorf("register %d serves no access", r)
		}
		for i, a := range path {
			if a < 0 || a >= len(offsets) {
				return fmt.Errorf("register %d serves access %d of %d", r, a, len(offsets))
			}
			if seen[a] {
				return fmt.Errorf("access %d served by two registers", a)
			}
			seen[a] = true
			covered++
			if i > 0 {
				if a <= path[i-1] {
					return fmt.Errorf("register %d serves access %d after %d", r, a, path[i-1])
				}
				want += unitCost(offsets[a]-offsets[path[i-1]], m)
			}
		}
		if wrap {
			want += unitCost(offsets[path[0]]+stride-offsets[path[len(path)-1]], m)
		}
	}
	if covered != len(offsets) {
		return fmt.Errorf("%d of %d accesses served", covered, len(offsets))
	}
	if want != cost {
		return fmt.Errorf("reported cost %d, assignment costs %d", cost, want)
	}
	return nil
}

// unitCost is 1 when a register update by d needs its own instruction
// (|d| > m) and 0 when the AGU's post-modify does it for free.
func unitCost(d, m int) int {
	if d < -m || d > m {
		return 1
	}
	return 0
}
