package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"dspaddr/internal/model"
	"dspaddr/internal/workload"
)

// Job is one allocation job in the benchmark's own form: what the
// wire request says, plus what the verifier needs to check the served
// answer without calling the allocator.
type Job struct {
	// Offsets and Stride describe a pattern job; Offsets is nil for a
	// loop job.
	Offsets []int
	Stride  int
	// Loop and Bindings describe a loop job; Arrays holds the loop's
	// per-array patterns in first-appearance order, as the server
	// answers them.
	Loop     string
	Bindings map[string]int
	Arrays   []model.Pattern
	K, M     int
	Wrap     bool
	Strategy string
}

// opKind is the shape of one logical operation of a stream.
type opKind uint8

const (
	opAllocate opKind = iota // POST /v1/allocate
	opBatch                  // POST /v1/batch
	opSubmit                 // POST /v1/jobs, then GET /v1/jobs/{id} until terminal
	opCancel                 // POST /v1/jobs, then DELETE /v1/jobs/{id}
)

// Op is one logical operation with its request body encoded up front,
// so encoding never runs inside a timed window.
type Op struct {
	Kind opKind
	Jobs []*Job
	Body []byte
}

// The benchmark's own copy of the request wire schema.
type wireAGU struct {
	Registers   int `json:"registers"`
	ModifyRange int `json:"modifyRange"`
}

type wirePattern struct {
	Stride  int   `json:"stride,omitempty"`
	Offsets []int `json:"offsets"`
}

type wireJob struct {
	Pattern  *wirePattern   `json:"pattern,omitempty"`
	Loop     string         `json:"loop,omitempty"`
	Bindings map[string]int `json:"bindings,omitempty"`
	AGU      wireAGU        `json:"agu"`
	Wrap     bool           `json:"wrap,omitempty"`
	Strategy string         `json:"strategy,omitempty"`
}

type wireJobs struct {
	Jobs []wireJob `json:"jobs"`
}

func (j *Job) wire() wireJob {
	w := wireJob{AGU: wireAGU{Registers: j.K, ModifyRange: j.M}, Wrap: j.Wrap, Strategy: j.Strategy}
	if j.Loop != "" {
		w.Loop, w.Bindings = j.Loop, j.Bindings
	} else {
		w.Pattern = &wirePattern{Stride: j.Stride, Offsets: j.Offsets}
	}
	return w
}

// newOp encodes a single-job body for allocate, submit and cancel ops
// and a {"jobs": [...]} body otherwise.
func newOp(kind opKind, jobs ...*Job) *Op {
	var v any
	if len(jobs) == 1 && kind != opBatch {
		v = jobs[0].wire()
	} else {
		ws := wireJobs{Jobs: make([]wireJob, len(jobs))}
		for i, j := range jobs {
			ws.Jobs[i] = j.wire()
		}
		v = ws
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints and strings always encode
	}
	return &Op{Kind: kind, Jobs: jobs, Body: body}
}

// deck deals 0..n-1 in seeded shuffled rounds: every value comes up
// equally often, in random order. Drawing an op stream's shapes and
// pool specs from decks instead of independent draws keeps its
// composition, and with it the stream's total work and allocation cost,
// the same from seed to seed.
type deck struct {
	rng   *rand.Rand
	n     int
	round []int
}

func (d *deck) next() int {
	if len(d.round) == 0 {
		d.round = d.rng.Perm(d.n)
	}
	v := d.round[0]
	d.round = d.round[1:]
	return v
}

// gen draws a workload's op stream from one seeded RNG. Equal seeds
// give byte-identical streams.
type gen struct {
	rng  *rand.Rand
	pool []*Job
	// Decks of the op stream: pool specs, op shapes, batch sizes, and
	// pool or fresh job sources.
	specs, shapes, sizes, sources *deck
	// seen holds the translation-normalized identity of every fresh
	// pattern, so fresh patterns never repeat within a stream (the
	// engine's cache key is translation invariant too).
	seen map[string]bool
}

// poolSize is the recurring-spec pool of the warm-sync and
// cluster-async workloads: 36 random patterns and 12 loop kernels.
const poolSize = 48

func newGen(seed int64) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool)}
	g.buildPool()
	g.specs = &deck{rng: g.rng, n: poolSize}
	g.shapes = &deck{rng: g.rng, n: 25}
	g.sizes = &deck{rng: g.rng, n: 7}
	g.sources = &deck{rng: g.rng, n: 20}
	return g
}

// buildPool fills the pool by stratified draws: every random pattern's
// access count, K, M, objective, strategy, offset range and
// distribution follow fixed strata, and the twelve loop jobs are fixed
// kernels with fixed budgets, so only the offsets come from the seed.
// That keeps the pool's total allocation cost and solve effort close
// across seeds: a seed changes which patterns are served, not how hard
// they are.
func (g *gen) buildPool() {
	kernels := workload.AllKernels() // in name order
	for i := 0; i < poolSize; i++ {
		if i%4 == 3 {
			j := i / 4
			g.pool = append(g.pool, loopJob(kernels[j%len(kernels)], j%3, j%3, j%4 == 0))
			continue
		}
		r := i - i/4 // 0..35
		n := 4 + r*21/36
		strategy := ""
		switch r % 8 {
		case 2:
			strategy = "smallest"
		case 6:
			strategy = "naive"
		}
		j := g.freshJob(n, 1+r%4, (r/4)%3, 4+(r*5)%8, r%6 == 5 && n <= 16, workload.Distribution(r%3))
		j.Strategy = strategy
		g.pool = append(g.pool, j)
	}
}

// loopJob builds a loop job whose register budget K is the loop's
// array count plus extra: a loop needs one register per array, and
// the server rightly refuses (422) a loop with fewer.
func loopJob(k *workload.Kernel, extra, m int, wrap bool) *Job {
	pats, _ := k.Loop.Patterns()
	return &Job{
		Loop:     k.Source,
		Bindings: k.Bindings,
		Arrays:   pats,
		K:        len(pats) + extra,
		M:        m,
		Wrap:     wrap,
	}
}

// freshJob draws a random pattern job never drawn before in this
// stream.
func (g *gen) freshJob(n, k, m, offsetRange int, wrap bool, dist workload.Distribution) *Job {
	for {
		pat, err := workload.RandomPattern(g.rng, workload.RandomParams{N: n, OffsetRange: offsetRange, Dist: dist})
		if err != nil {
			panic(err) // parameters are in range by construction
		}
		j := &Job{Offsets: pat.Offsets, Stride: 1, K: k, M: m, Wrap: wrap}
		if key := j.identity(); !g.seen[key] {
			g.seen[key] = true
			return j
		}
	}
}

// identity is the pattern's translation-normalized form with its
// parameters.
func (j *Job) identity() string {
	var b strings.Builder
	for _, o := range j.Offsets {
		fmt.Fprintf(&b, "%d,", o-j.Offsets[0])
	}
	fmt.Fprintf(&b, "|%d|%d|%d|%v|%s", j.Stride, j.K, j.M, j.Wrap, j.Strategy)
	return b.String()
}

func (g *gen) poolJob() *Job { return g.pool[g.specs.next()] }

// next draws the workload's next op.
func (g *gen) next(w workloadName) *Op {
	switch w {
	case warmSync:
		// Of every 25 ops, 3 are batches of 2-8 jobs (about 1 in 8).
		if g.shapes.next() < 3 {
			jobs := make([]*Job, 2+g.sizes.next())
			for i := range jobs {
				jobs[i] = g.poolJob()
			}
			return newOp(opBatch, jobs...)
		}
		return newOp(opAllocate, g.poolJob())
	case coldSolve:
		// 12 non-wrap jobs large enough that phase 2 merges, then 4
		// small wrap-aware jobs that make phase 1 search.
		jobs := make([]*Job, 16)
		for i := range jobs {
			k, m := 2+g.rng.Intn(3), 1+g.rng.Intn(2)
			dist, offsetRange := workload.Distribution(g.rng.Intn(3)), 4+g.rng.Intn(8)
			if i < 12 {
				jobs[i] = g.freshJob(32+g.rng.Intn(33), k, m, offsetRange, false, dist)
			} else {
				jobs[i] = g.freshJob(8+g.rng.Intn(9), k, m, offsetRange, true, dist)
			}
		}
		return newOp(opBatch, jobs...)
	default: // clusterAsync
		// Of every 25 ops, 5 are cancels and 4 submit 2-4 jobs; of
		// every 20 jobs, 3 are fresh patterns (15%).
		shape := g.shapes.next()
		n := 1
		if shape >= 5 && shape < 9 {
			n = 2 + g.sizes.next()%3
		}
		jobs := make([]*Job, n)
		for i := range jobs {
			if g.sources.next() < 3 {
				n := 4 + g.rng.Intn(21)
				jobs[i] = g.freshJob(n, 1+g.rng.Intn(4), g.rng.Intn(3), 4+g.rng.Intn(8), n <= 16 && g.rng.Intn(5) == 0, workload.Distribution(g.rng.Intn(3)))
			} else {
				jobs[i] = g.poolJob()
			}
		}
		if shape < 5 {
			return newOp(opCancel, jobs...)
		}
		return newOp(opSubmit, jobs...)
	}
}

// stream is one run's op stream: warm-up ops (before timing), the
// open-loop segment whose served costs make alloc_cost_total, and the
// closed-loop segment, drawn in that order.
type stream struct {
	warm, open, closed []*Op
}

// makeStream draws the open segment first so its ops depend only on
// the seed and its length, then the warm-up, then the closed segment.
func makeStream(w workloadName, seed int64, openOps, closedOps int) *stream {
	g := newGen(seed)
	s := &stream{open: make([]*Op, openOps), closed: make([]*Op, closedOps)}
	for i := range s.open {
		s.open[i] = g.next(w)
	}
	switch w {
	case coldSolve:
		for i := 0; i < 8; i++ {
			s.warm = append(s.warm, g.next(w))
		}
	default:
		// Every pool spec once, so the timed window sees a warm cache.
		kind := opAllocate
		if w == clusterAsync {
			kind = opSubmit
		}
		for _, j := range g.pool {
			s.warm = append(s.warm, newOp(kind, j))
		}
	}
	for i := range s.closed {
		s.closed[i] = g.next(w)
	}
	return s
}
