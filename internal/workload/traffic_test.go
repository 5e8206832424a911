package workload

import (
	"reflect"
	"testing"

	"dspaddr/internal/frontend"
)

// TestTrafficDeterminism: same (seed, options) ⇒ byte-identical op
// streams — the property that makes soak runs replayable.
func TestTrafficDeterminism(t *testing.T) {
	opts := TrafficOptions{Mix: Mix{Sync: 3, Batch: 1, Async: 5, Burst: 1, Cancel: 1, BigN: 1}}
	a := NewTrafficGen(42, opts)
	b := NewTrafficGen(42, opts)
	for i := 0; i < 500; i++ {
		oa, ob := a.Next(), b.Next()
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("op %d diverged:\n a=%+v\n b=%+v", i, oa, ob)
		}
	}
	// A different seed must diverge quickly (sanity, not a guarantee
	// for any single op).
	c := NewTrafficGen(43, opts)
	diverged := false
	for i := 0; i < 50; i++ {
		if !reflect.DeepEqual(a.Next(), c.Next()) {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical 50-op streams")
	}
}

// TestTrafficSpecsValid: every generated job spec is well-formed
// (exactly one of pattern/loop, sane AGU) and every weighted class
// eventually fires.
func TestTrafficSpecsValid(t *testing.T) {
	g := NewTrafficGen(7, TrafficOptions{
		Mix:       Mix{Sync: 2, Batch: 2, Async: 2, Burst: 1, Cancel: 2, BigN: 2},
		BurstSize: 8,
	})
	seen := map[OpKind]int{}
	for i := 0; i < 2000; i++ {
		op := g.Next()
		seen[op.Kind]++
		if len(op.Jobs) == 0 {
			t.Fatalf("op %d (%s) has no jobs", i, op.Kind)
		}
		if op.Kind == OpAsyncBurst && len(op.Jobs) != 8 {
			t.Fatalf("burst carries %d jobs, want 8", len(op.Jobs))
		}
		if op.Priority < 0 {
			t.Fatalf("negative priority %d", op.Priority)
		}
		for _, j := range op.Jobs {
			hasPattern := len(j.Pattern.Offsets) > 0
			if hasPattern == j.IsLoop() {
				t.Fatalf("op %d (%s): spec is neither pattern nor loop (or both): %+v", i, op.Kind, j)
			}
			if j.AGU.Registers < 1 || j.AGU.ModifyRange < 0 {
				t.Fatalf("op %d: bad AGU %+v", i, j.AGU)
			}
			if j.Key() == "" {
				t.Fatalf("op %d: empty spec key", i)
			}
		}
	}
	for _, k := range []OpKind{OpSync, OpBatch, OpAsync, OpAsyncBurst, OpCancel, OpBigN} {
		if seen[k] == 0 {
			t.Errorf("class %s never fired in 2000 ops (mix broken)", k)
		}
	}
}

// TestTrafficPoolReuse: the default stream revisits pool specs — the
// repetition that exercises the engine cache and job-dedup paths.
func TestTrafficPoolReuse(t *testing.T) {
	g := NewTrafficGen(1, TrafficOptions{Mix: Mix{Sync: 1}})
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		counts[g.Next().Jobs[0].Key()]++
	}
	reused := 0
	for _, n := range counts {
		if n > 1 {
			reused++
		}
	}
	if reused < 10 {
		t.Fatalf("only %d spec keys repeated across 400 sync ops — pool reuse broken", reused)
	}
}

// TestTrafficLoopsFeasible: every pooled loop spec has at least one
// register per array, so no loop job is refused as infeasible.
func TestTrafficLoopsFeasible(t *testing.T) {
	loops := 0
	for seed := int64(1); seed <= 8; seed++ {
		for _, spec := range NewTrafficGen(seed, TrafficOptions{}).pool {
			if !spec.IsLoop() {
				continue
			}
			loops++
			prog, err := frontend.Parse(spec.Loop, spec.Bindings)
			if err != nil {
				t.Fatal(err)
			}
			if arrays := len(prog.Loop.Arrays()); spec.AGU.Registers < arrays {
				t.Errorf("seed %d: loop with %d arrays drawn with K=%d", seed, arrays, spec.AGU.Registers)
			}
		}
	}
	if loops == 0 {
		t.Fatal("no loop specs pooled")
	}
}

// TestParseMix round-trips and rejects junk.
func TestParseMix(t *testing.T) {
	m, err := ParseMix("sync:3,async:5,cancel:1")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Sync: 3, Async: 5, Cancel: 1}) {
		t.Fatalf("parsed %+v", m)
	}
	if got := m.String(); got != "sync:3,async:5,cancel:1" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "sync", "sync:x", "warp:1", "sync:-2", "sync:0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}
