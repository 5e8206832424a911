// Seeded traffic-mix generation for the soak & chaos harness
// (cmd/rcasoak) and any other load driver that needs a reproducible
// stream of realistic server requests. A TrafficGen draws operations
// — synchronous solves, batches, async submissions, cancel targets,
// pathological large-N jobs — from weighted classes over a seeded
// RNG, so two generators built with the same seed and mix emit
// byte-identical op streams: the property that makes a soak failure
// replayable and a fault schedule deterministic.
//
// Ops mostly reuse specs from a per-generator pool (realistic
// programs resubmit the same kernels, and reuse is what exercises the
// engine's canonical cache), with a fresh
// unique pattern mixed in to keep cold solves flowing.

package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dspaddr/internal/model"
)

// OpKind classifies one generated operation.
type OpKind int

const (
	// OpSync is one synchronous solve (POST /v1/allocate).
	OpSync OpKind = iota
	// OpBatch is a synchronous multi-job request (POST /v1/batch).
	OpBatch
	// OpAsync is an async submission to poll to completion
	// (POST /v1/jobs, then GET /v1/jobs/{id}).
	OpAsync
	// OpAsyncBurst is a large multi-job async submission — the
	// overload shape that fills the admission queue and provokes 429s.
	OpAsyncBurst
	// OpCancel is an async submission the driver cancels mid-flight
	// (DELETE /v1/jobs/{id} racing the solve).
	OpCancel
	// OpBigN is a pathological large-N solve submitted async; it may
	// legitimately resolve as timeout under the server's job deadline.
	OpBigN
)

// String names the op class (report keys, latency buckets).
func (k OpKind) String() string {
	switch k {
	case OpSync:
		return "sync"
	case OpBatch:
		return "batch"
	case OpAsync:
		return "async"
	case OpAsyncBurst:
		return "burst"
	case OpCancel:
		return "cancel"
	case OpBigN:
		return "bign"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// JobSpec is one allocation job in generator form — exactly the
// information a driver needs to build a wire request and to run the
// same job through the in-process reference allocator.
type JobSpec struct {
	// Pattern is the inline access pattern; empty Offsets means the
	// job is a loop job instead.
	Pattern model.Pattern
	// Loop is mini-C loop source (loop jobs only) with Bindings
	// resolving its symbolic constants.
	Loop     string
	Bindings map[string]int
	// AGU is the register constraint and modify range.
	AGU model.AGUSpec
	// Wrap includes inter-iteration updates in the objective.
	Wrap bool
	// Strategy names the merge heuristic ("" = greedy).
	Strategy string
}

// IsLoop reports whether the spec is a loop-DSL job.
func (j JobSpec) IsLoop() bool { return j.Loop != "" }

// Key is a stable identity for reference-solve caching: two specs
// with equal keys allocate identically.
func (j JobSpec) Key() string {
	var b strings.Builder
	if j.IsLoop() {
		fmt.Fprintf(&b, "L|%s|", j.Loop)
		// Bindings in sorted order for stability.
		keys := make([]string, 0, len(j.Bindings))
		for k := range j.Bindings {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%d;", k, j.Bindings[k])
		}
	} else {
		fmt.Fprintf(&b, "P|%d|%v|", j.Pattern.Stride, j.Pattern.Offsets)
	}
	fmt.Fprintf(&b, "|K%d|M%d|w%v|%s", j.AGU.Registers, j.AGU.ModifyRange, j.Wrap, j.Strategy)
	return b.String()
}

// Op is one generated operation.
type Op struct {
	// Kind selects the driver behavior.
	Kind OpKind
	// Jobs carries one spec for sync/async/cancel/bign ops and
	// several for batch/burst ops.
	Jobs []JobSpec
	// Priority is the async submission priority.
	Priority int
}

// Mix weighs the op classes; zero-weight classes never fire. The zero
// Mix is invalid — use DefaultMix for a balanced stream.
type Mix struct {
	Sync, Batch, Async, Burst, Cancel, BigN int
}

// DefaultMix is a balanced steady-state stream: mostly small sync and
// async traffic, periodic batches, a trickle of cancels and large-N
// jobs, no overload bursts.
func DefaultMix() Mix { return Mix{Sync: 3, Batch: 1, Async: 5, Cancel: 1, BigN: 1} }

// total returns the weight sum (0 for an all-zero mix).
func (m Mix) total() int { return m.Sync + m.Batch + m.Async + m.Burst + m.Cancel + m.BigN }

// ParseMix reads the compact "class:weight,..." form used by scenario
// files, e.g. "sync:3,async:5,cancel:1". Unknown classes are errors;
// omitted classes weigh zero.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, ":")
		if !ok {
			return Mix{}, fmt.Errorf("workload: bad mix term %q (want class:weight)", part)
		}
		var w int
		if _, err := fmt.Sscanf(wstr, "%d", &w); err != nil || w < 0 {
			return Mix{}, fmt.Errorf("workload: bad mix weight %q", wstr)
		}
		switch name {
		case "sync":
			m.Sync = w
		case "batch":
			m.Batch = w
		case "async":
			m.Async = w
		case "burst":
			m.Burst = w
		case "cancel":
			m.Cancel = w
		case "bign":
			m.BigN = w
		default:
			return Mix{}, fmt.Errorf("workload: unknown mix class %q", name)
		}
	}
	if m.total() == 0 {
		return Mix{}, fmt.Errorf("workload: mix %q has zero total weight", s)
	}
	return m, nil
}

// String renders the mix back in ParseMix form.
func (m Mix) String() string {
	var parts []string
	add := func(name string, w int) {
		if w > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", name, w))
		}
	}
	add("sync", m.Sync)
	add("batch", m.Batch)
	add("async", m.Async)
	add("burst", m.Burst)
	add("cancel", m.Cancel)
	add("bign", m.BigN)
	return strings.Join(parts, ",")
}

// TrafficGen emits a deterministic op stream. Not safe for concurrent
// use; give each driver goroutine its own generator (distinct seeds
// keep their streams distinct).
type TrafficGen struct {
	rng  *rand.Rand
	mix  Mix
	pool []JobSpec // recurring specs: cache hits
	// burstSize is the job count of one OpAsyncBurst submission; sized
	// against the server's queue capacity by the caller.
	burstSize int
	// freshFraction permils of single-job draws that are unique
	// patterns rather than pool reuse.
	freshFraction int
	fresh         int // serial for unique fresh patterns
}

// TrafficOptions tunes a generator.
type TrafficOptions struct {
	// Mix weighs the op classes; zero means DefaultMix.
	Mix Mix
	// PoolSize is the recurring-spec pool (0 = 48).
	PoolSize int
	// BurstSize is the jobs per OpAsyncBurst (0 = 32).
	BurstSize int
	// FreshFraction permils (0-1000) of single-job ops drawn as fresh
	// unique patterns instead of pool reuse (0 = 150, i.e. 15%).
	FreshFraction int
}

// NewTrafficGen builds a generator; equal (seed, opts) pairs yield
// identical streams.
func NewTrafficGen(seed int64, opts TrafficOptions) *TrafficGen {
	if opts.Mix.total() == 0 {
		opts.Mix = DefaultMix()
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 48
	}
	if opts.BurstSize <= 0 {
		opts.BurstSize = 32
	}
	if opts.FreshFraction <= 0 {
		opts.FreshFraction = 150
	}
	g := &TrafficGen{
		rng:           rand.New(rand.NewSource(seed)),
		mix:           opts.Mix,
		burstSize:     opts.BurstSize,
		freshFraction: opts.FreshFraction,
	}
	g.pool = make([]JobSpec, 0, opts.PoolSize)
	names := KernelNames()
	for i := 0; i < opts.PoolSize; i++ {
		// Every 4th pool entry is a real DSP kernel through the loop
		// DSL; the rest are small random patterns.
		if i%4 == 3 {
			k := kernels()[names[g.rng.Intn(len(names))]]
			agu := g.randomAGU()
			// A loop needs one register per array (the server answers
			// 422 to fewer): K is drawn from [arrays, arrays+3].
			agu.Registers += len(k.Loop.Arrays()) - 1
			g.pool = append(g.pool, JobSpec{
				Loop:     k.Source,
				Bindings: k.Bindings,
				AGU:      agu,
				Wrap:     g.rng.Intn(4) == 0,
			})
			continue
		}
		g.pool = append(g.pool, g.freshPattern(4+g.rng.Intn(20), opts.FreshFraction))
	}
	return g
}

// randomAGU draws a plausible AGU shape: K in [1,4], M in [0,2].
func (g *TrafficGen) randomAGU() model.AGUSpec {
	return model.AGUSpec{Registers: 1 + g.rng.Intn(4), ModifyRange: g.rng.Intn(3)}
}

// freshPattern draws a unique random-pattern spec of about n accesses.
func (g *TrafficGen) freshPattern(n, _ int) JobSpec {
	dist := Distribution(g.rng.Intn(3))
	pat, err := RandomPattern(g.rng, RandomParams{
		N:           n,
		OffsetRange: 4 + g.rng.Intn(8),
		Dist:        dist,
	})
	if err != nil {
		panic(err) // parameters are in-range by construction
	}
	g.fresh++
	pat.Array = fmt.Sprintf("A%d", g.fresh) // informational only
	strategy := ""
	switch g.rng.Intn(8) {
	case 0:
		strategy = "smallest"
	case 1:
		strategy = "naive"
	}
	return JobSpec{Pattern: pat, AGU: g.randomAGU(), Wrap: g.rng.Intn(5) == 0, Strategy: strategy}
}

// jobSpec draws one job: pool reuse most of the time, fresh otherwise.
func (g *TrafficGen) jobSpec() JobSpec {
	if g.rng.Intn(1000) < g.freshFraction {
		return g.freshPattern(4+g.rng.Intn(20), g.freshFraction)
	}
	return g.pool[g.rng.Intn(len(g.pool))]
}

// bigNSpec draws a pathological large-N pattern job. These are cold
// (unique) by construction and may time out server-side — that is the
// point.
func (g *TrafficGen) bigNSpec() JobSpec {
	spec := g.freshPattern(28+g.rng.Intn(8), g.freshFraction)
	spec.AGU = model.AGUSpec{Registers: 2 + g.rng.Intn(3), ModifyRange: 1 + g.rng.Intn(2)}
	spec.Strategy = "" // greedy merge; phase-1 cover is the load
	return spec
}

// Next draws the next operation.
func (g *TrafficGen) Next() Op {
	w := g.rng.Intn(g.mix.total())
	switch {
	case w < g.mix.Sync:
		return Op{Kind: OpSync, Jobs: []JobSpec{g.jobSpec()}}
	case w < g.mix.Sync+g.mix.Batch:
		n := 2 + g.rng.Intn(7)
		jobs := make([]JobSpec, n)
		for i := range jobs {
			jobs[i] = g.jobSpec()
		}
		return Op{Kind: OpBatch, Jobs: jobs}
	case w < g.mix.Sync+g.mix.Batch+g.mix.Async:
		return Op{Kind: OpAsync, Jobs: []JobSpec{g.jobSpec()}, Priority: g.rng.Intn(3)}
	case w < g.mix.Sync+g.mix.Batch+g.mix.Async+g.mix.Burst:
		jobs := make([]JobSpec, g.burstSize)
		for i := range jobs {
			jobs[i] = g.jobSpec()
		}
		return Op{Kind: OpAsyncBurst, Jobs: jobs, Priority: g.rng.Intn(3)}
	case w < g.mix.Sync+g.mix.Batch+g.mix.Async+g.mix.Burst+g.mix.Cancel:
		return Op{Kind: OpCancel, Jobs: []JobSpec{g.jobSpec()}, Priority: g.rng.Intn(3)}
	default:
		return Op{Kind: OpBigN, Jobs: []JobSpec{g.bigNSpec()}, Priority: g.rng.Intn(3)}
	}
}
