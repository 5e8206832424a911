package main

import (
	"bytes"
	"strings"
	"testing"
)

// The paper's Section 2 example: offsets 1, 0, 2, -1, 1, 0, -2.
var paperOffsets = []int{1, 0, 2, -1, 1, 0, -2}

func TestVerifyAcceptsPaperExample(t *testing.T) {
	// K=2, M=1: phase 1 finds two zero-cost registers.
	if err := verifyAssignment(paperOffsets, 1, 2, 1, false, [][]int{{0, 1, 3, 6}, {2, 4, 5}}, 0); err != nil {
		t.Errorf("K=2 M=1 cost 0 rejected: %v", err)
	}
	// K=1, M=1: greedy merges everything into one register at cost 4.
	if err := verifyAssignment(paperOffsets, 1, 1, 1, false, [][]int{{0, 1, 2, 3, 4, 5, 6}}, 4); err != nil {
		t.Errorf("K=1 M=1 cost 4 rejected: %v", err)
	}
	// With the loop-back update counted, the single register also pays
	// for the jump from offset -2 back to 1+1.
	if err := verifyAssignment(paperOffsets, 1, 1, 1, true, [][]int{{0, 1, 2, 3, 4, 5, 6}}, 5); err != nil {
		t.Errorf("K=1 M=1 wrap cost 5 rejected: %v", err)
	}
}

func TestVerifyRejectsCorruptedAssignments(t *testing.T) {
	cases := []struct {
		name string
		k    int
		regs [][]int
		cost int
		want string
	}{
		{"dropped access", 2, [][]int{{0, 1, 3, 6}, {2, 4}}, 0, "6 of 7 accesses"},
		{"duplicated access", 2, [][]int{{0, 1, 3, 6}, {2, 3, 4, 5}}, 0, "two registers"},
		{"too many registers", 2, [][]int{{0, 1, 3}, {6}, {2, 4, 5}}, 0, "3 registers used"},
		{"wrong cost", 2, [][]int{{0, 1, 3, 6}, {2, 4, 5}}, 1, "reported cost 1"},
		{"out of program order", 2, [][]int{{0, 3, 1, 6}, {2, 4, 5}}, 0, "after"},
		{"greedy with wrong cost", 1, [][]int{{0, 1, 2, 3, 4, 5, 6}}, 3, "assignment costs 4"},
	}
	for _, c := range cases {
		err := verifyAssignment(paperOffsets, 1, c.k, 1, false, c.regs, c.cost)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestVerifyJobLoop(t *testing.T) {
	g := newGen(1)
	var loop *Job
	for _, j := range g.pool {
		if j.Loop != "" && len(j.Arrays) == 2 {
			loop = j
			break
		}
	}
	if loop == nil {
		t.Skip("no two-array kernel in the pool for this seed")
	}
	// One register per array, each array's accesses in program order.
	var res wireJobResult
	for i, pat := range loop.Arrays {
		path := make([]int, len(pat.Offsets))
		cost := 0
		for a := range path {
			path[a] = a
			if a > 0 {
				cost += unitCost(pat.Offsets[a]-pat.Offsets[a-1], loop.M)
			}
		}
		if loop.Wrap {
			cost += unitCost(pat.Offsets[0]+pat.Stride-pat.Offsets[len(path)-1], loop.M)
		}
		res.Results = append(res.Results, wireAlloc{Array: pat.Array, Offsets: pat.Offsets, Cost: cost, Registers: [][]int{path}, GlobalRegisters: []int{i}})
	}
	if _, err := verifyJob(loop, &res); err != nil {
		t.Fatalf("valid loop answer rejected: %v", err)
	}
	res.Results[1].GlobalRegisters = []int{0}
	if _, err := verifyJob(loop, &res); err == nil {
		t.Error("loop answer with a shared global register accepted")
	}
}

func TestEqualSeedsGiveIdenticalStreams(t *testing.T) {
	for _, w := range []workloadName{warmSync, coldSolve, clusterAsync} {
		a, b := makeStream(w, 42, 200, 50), makeStream(w, 42, 200, 50)
		c := makeStream(w, 43, 200, 50)
		if !bytes.Equal(streamBytes(a), streamBytes(b)) {
			t.Errorf("%s: equal seeds gave different streams", w)
		}
		if bytes.Equal(streamBytes(a), streamBytes(c)) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w)
		}
	}
}

func TestLoopJobsFitTheirArrays(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		for _, j := range newGen(seed).pool {
			if j.Loop != "" && j.K < len(j.Arrays) {
				t.Fatalf("seed %d: loop with %d arrays drawn with K=%d", seed, len(j.Arrays), j.K)
			}
		}
	}
}

func TestColdSolvePatternsNeverRepeat(t *testing.T) {
	s := makeStream(coldSolve, 7, 300, 300)
	seen := make(map[string]bool)
	for _, seg := range [][]*Op{s.warm, s.open, s.closed} {
		for _, op := range seg {
			for _, j := range op.Jobs {
				if seen[j.identity()] {
					t.Fatalf("pattern %v repeated", j.Offsets)
				}
				seen[j.identity()] = true
			}
		}
	}
}

// streamBytes concatenates every request body of a stream in order.
func streamBytes(s *stream) []byte {
	var b bytes.Buffer
	for _, seg := range [][]*Op{s.warm, s.open, s.closed} {
		for _, op := range seg {
			b.WriteByte(byte(op.Kind))
			b.Write(op.Body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}
