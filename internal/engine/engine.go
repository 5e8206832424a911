// Package engine is the concurrent batch allocation engine layered on
// top of the single-request allocator in package core.
//
// An Engine owns a bounded pool of worker goroutines, a sharded
// canonicalized-pattern result cache and aggregate serving statistics.
// Jobs — (pattern, configuration) pairs or whole loops — are submitted
// one at a time with Run and RunLoop, or many at once with RunJobs (or
// RunBatch, its pattern-only form). All four are one submission path:
// Run, RunLoop and RunBatch are calls of RunJobs, so every job funnels
// through the same pool — total solver concurrency never exceeds the
// configured worker count regardless of how many callers submit
// concurrently — and every submission returns only after its jobs
// have settled. A canceled context makes the workers unwind promptly
// (see below); it never makes a submission return while a worker
// still holds the caller's context or records into its trace.
//
// Identical access patterns are common across the loops of real DSP
// programs (the same FIR tap structure appears in every filter), so the
// cache keys each job by a translation-normalized form of its pattern
// together with the allocation parameters; keys are fixed-size binary
// values built without allocation (see cache.go). A hit skips the
// path-cover and merge phases entirely and costs one shard-local map
// lookup plus a shallow result rewrite.
//
// The request hot path is engineered around three rules. Each worker
// owns a reusable core.Solver, so a cache miss reuses the previous
// solve's distance-graph, path-cover and merge workspaces instead of
// rebuilding them from heap. A missing result is computed on the
// worker that discovered the miss rather than on a spawned goroutine.
// And solves are cooperatively cancelable:
// the worker threads its job context into the phase-1 branch-and-bound
// and the merge loop, so a canceled or timed-out job releases its
// worker within microseconds instead of occupying it until the full
// solve completes.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dspaddr/internal/core"
	"dspaddr/internal/faults"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/obs"
)

// DefaultWorkers is the worker-pool size used when Options.Workers is
// zero: the number of CPUs, but never fewer than 8 so that a small
// container still overlaps cache misses with cache hits under load.
const DefaultWorkers = 8

// Request is one allocation job. It mirrors core.Config but replaces
// the Strategy interface with a by-name selection so that requests are
// comparable, serializable and cacheable.
type Request struct {
	// Pattern is the access pattern to allocate.
	Pattern model.Pattern
	// AGU is the register constraint K and modify range M.
	AGU model.AGUSpec
	// InterIteration includes loop-back updates in the objective
	// (core.Config.InterIteration).
	InterIteration bool
	// Strategy names the phase-2 merge heuristic: "greedy" (default),
	// "naive", "smallest" or "optimal". The empty string means greedy.
	Strategy string
}

// checkStrategy rejects an unknown merge strategy name.
func checkStrategy(name string) error {
	if _, _, ok := merge.ByName(name); !ok {
		return fmt.Errorf("engine: unknown merge strategy %q", name)
	}
	return nil
}

// config lowers the request to a core.Config. The strategy name must
// already have been validated.
func (r Request) config() core.Config {
	s, _, _ := merge.ByName(r.Strategy)
	return core.Config{AGU: r.AGU, InterIteration: r.InterIteration, Strategy: s}
}

// JobResult is the outcome of one job.
type JobResult struct {
	// Result is the allocation, nil if Err is set.
	Result *core.Result
	// Err reports a failed job: validation errors from the allocator,
	// ErrTimeout past the per-job deadline, or the context error if the
	// submitting context was canceled first.
	Err error
	// CacheHit reports that the result came from the canonical-pattern
	// cache, so this job ran no solve.
	CacheHit bool
	// Elapsed is the wall time from dequeue to completion.
	Elapsed time.Duration
}

// ErrTimeout is returned (wrapped) in JobResult.Err when a job exceeds
// the engine's per-job timeout.
var ErrTimeout = fmt.Errorf("engine: job timed out")

// Options configures an Engine.
type Options struct {
	// Workers bounds solver concurrency; 0 means DefaultWorkers.
	Workers int
	// JobTimeout is the per-job solve deadline; 0 disables it. The
	// deadline is threaded into the solver as a context, so a job that
	// outlives it abandons its solve cooperatively (within
	// microseconds) and frees its worker — the late partial work is
	// discarded, it does not populate the cache.
	JobTimeout time.Duration
	// CacheSize is the maximum number of cached canonical results
	// across all shards; 0 means DefaultCacheSize, negative disables
	// result retention.
	CacheSize int
	// Faults is the opt-in chaos hook for soak builds: an armed
	// injector can stall or fail any solve (see internal/faults). nil — the production default — costs one
	// pointer compare per solve and nothing else.
	Faults *faults.Injector
	// ShedTarget is the CoDel-style queue-wait target for adaptive
	// load shedding: when the MINIMUM queue wait over a ShedWindow
	// stays above it, Overloaded() reports true and the server sheds
	// its synchronous solve paths (0 = DefaultShedTarget).
	ShedTarget time.Duration
	// ShedWindow is the controller's evaluation interval (0 =
	// DefaultShedWindow).
	ShedWindow time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = DefaultWorkers
		if n := runtime.NumCPU(); n > o.Workers {
			o.Workers = n
		}
	}
	return o
}

// taskKind discriminates the two job shapes a worker can run.
type taskKind uint8

const (
	taskPattern taskKind = iota
	taskLoop
)

// task is one queued unit of work, passed to a worker by value — no
// per-job closure or goroutine is allocated. The worker writes the
// result through out/loopOut, then signals wg.
type task struct {
	ctx     context.Context
	kind    taskKind
	req     Request
	loop    LoopRequest
	out     *JobResult
	loopOut *LoopJobResult
	wg      *sync.WaitGroup
	// enqueued is the submission time, stamped by RunJobs: the worker
	// turns (dequeue - enqueued) into the queue-wait signal the shed
	// controller runs on, and — when ctx carries an obs.Trace — into
	// an "engine.queue" span.
	enqueued time.Time
}

// Engine runs allocation jobs on a bounded worker pool with caching
// and statistics. Create one with New, submit with Run or RunBatch,
// and release it with Close. All methods are safe for concurrent use.
type Engine struct {
	opts  Options
	jobs  chan task
	wg    sync.WaitGroup
	cache *resultCache
	stats collector
	// shed is the adaptive load-shedding controller.
	shed *shedController

	// solve and solveLoop are the job executors, replaceable in tests
	// to instrument concurrency without paying for real solves. They
	// run on worker goroutines with the worker's own Solver and must
	// honor ctx if the test wants cancellation semantics.
	solve     func(ctx context.Context, s *core.Solver, r Request) (*core.Result, error)
	solveLoop func(ctx context.Context, s *core.Solver, r LoopRequest) (*core.LoopResult, error)

	closeOnce sync.Once
	closed    chan struct{}
}

// New starts an engine with its worker pool. The caller must Close it
// when done.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		opts:   opts,
		jobs:   make(chan task),
		cache:  newResultCache(opts.CacheSize),
		closed: make(chan struct{}),
		solve: func(ctx context.Context, s *core.Solver, r Request) (*core.Result, error) {
			return s.Allocate(ctx, r.Pattern, r.config())
		},
		solveLoop: func(ctx context.Context, s *core.Solver, r LoopRequest) (*core.LoopResult, error) {
			return s.AllocateLoop(ctx, r.Loop, r.config())
		},
	}
	e.stats.workers = opts.Workers
	e.stats.solveHist = newSolveHistogram()
	e.shed = newShedController(opts.ShedTarget, opts.ShedWindow, time.Now())
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close stops accepting jobs and waits for in-flight jobs to drain.
// Pending Run and RunJobs calls racing with Close receive an error
// result; Close is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.closed) })
	e.wg.Wait()
}

// enqueue hands t to a worker, failing fast if the engine is closed
// or t's context canceled first. The jobs channel is unbuffered, so a
// successful send means a worker has committed to running the task.
func (e *Engine) enqueue(t task) error {
	select {
	case <-e.closed:
		return fmt.Errorf("engine: closed")
	case <-t.ctx.Done():
		return t.ctx.Err()
	case e.jobs <- t:
		return nil
	}
}

// Run submits one job and waits until it has settled; it is RunJobs
// with a single pattern job.
func (e *Engine) Run(ctx context.Context, req Request) JobResult {
	out, _ := e.RunJobs(ctx, []Request{req}, nil)
	return out[0]
}

// RunBatch submits every job and waits for all of them, returning
// results in job order; it is RunJobs without loop jobs.
func (e *Engine) RunBatch(ctx context.Context, reqs []Request) []JobResult {
	out, _ := e.RunJobs(ctx, reqs, nil)
	return out
}

// RunJobs submits a batch of pattern and whole-loop jobs and waits for
// all of them, returning each kind's results in its job order.
// Individual failures are reported per job; the batch itself never
// fails. A canceled context does not make RunJobs return before every
// accepted job has settled — workers settle canceled jobs promptly via
// cooperative cancellation, and jobs not yet accepted fail at once
// with the context's error — so the returned slices are always fully
// owned by the caller, and no worker records into the caller's trace
// after RunJobs returns.
//
// This is the engine's one submission loop (Run, RunLoop and RunBatch
// all call it): tasks go to the pool by value against one WaitGroup
// and one result slice per kind, with no per-job closure, channel or
// result box.
func (e *Engine) RunJobs(ctx context.Context, reqs []Request, loops []LoopRequest) ([]JobResult, []LoopJobResult) {
	out, loopOut := make([]JobResult, len(reqs)), make([]LoopJobResult, len(loops))
	var wg sync.WaitGroup
	wg.Add(len(reqs) + len(loops))
	// One clock read stamps the whole batch: the submit loop below is
	// microseconds end to end, and per-task reads were measurable on
	// the parallel batch path.
	enqueued := time.Now()
	for i := range len(reqs) + len(loops) {
		t := task{ctx: ctx, kind: taskPattern, wg: &wg, enqueued: enqueued}
		if i < len(reqs) {
			t.req, t.out = reqs[i], &out[i]
		} else {
			j := i - len(reqs)
			t.kind, t.loop, t.loopOut = taskLoop, loops[j], &loopOut[j]
		}
		if err := e.enqueue(t); err != nil {
			if t.kind == taskPattern {
				*t.out = JobResult{Err: err}
			} else {
				*t.loopOut = LoopJobResult{Err: err}
			}
			wg.Done()
		}
	}
	wg.Wait()
	return out, loopOut
}

// Stats returns a snapshot of the engine's aggregate statistics.
func (e *Engine) Stats() Stats {
	s := e.stats.snapshot()
	s.CacheEntries = e.cache.len()
	s.CacheCapacity = e.cache.cap()
	s.CacheShards = e.cache.shardsN()
	s.Shedding = e.Overloaded()
	s.ShedFlips = e.shed.flips.Load()
	return s
}

// SolveHistogram is the latency histogram of every successful solve
// (cache misses only) behind the Stats percentiles, for the
// serving layer's /metrics exposition.
func (e *Engine) SolveHistogram() *obs.Histogram { return e.stats.solveHist }

// worker is the pool loop: dequeue, run, until Close. Each worker
// owns one reusable core.Solver for the lifetime of the pool — the
// per-solve scratch (distance graph, cover search, merge buffers)
// warms up once and is reused by every subsequent cache miss. The
// jobs channel itself is never closed — senders and workers both
// watch the closed signal instead, so a Run racing with Close can
// never send on a closed channel.
func (e *Engine) worker() {
	defer e.wg.Done()
	solver := core.NewSolver()
	var tick uint
	for {
		select {
		case <-e.closed:
			return
		case t := <-e.jobs:
			tick++
			e.runTask(solver, t, tick)
		}
	}
}

// shedSampleMask subsamples the untraced dequeue path 1-in-8: the
// shed controller is an estimator over thousands of sojourns per
// window, and skipping the clock read on the other seven keeps the
// hot path as cheap as it was before shedding existed. A sampled
// minimum can only overestimate the true one, which errs toward
// shedding under overload — the safe direction.
const shedSampleMask = 7

// runTask executes one task on a worker and delivers its result.
// tick is the calling worker's local dequeue counter (contention-free
// sampling).
func (e *Engine) runTask(solver *core.Solver, t task, tick uint) {
	if tr := obs.FromContext(t.ctx); tr != nil {
		now := time.Now()
		e.shed.observe(now.Sub(t.enqueued), now)
		tr.AddSpan("engine.queue", t.enqueued, now)
	} else if tick&shedSampleMask == 0 {
		now := time.Now()
		e.shed.observe(now.Sub(t.enqueued), now)
	}
	switch t.kind {
	case taskPattern:
		*t.out = e.processPattern(t.ctx, solver, t.req)
	case taskLoop:
		*t.loopOut = e.processLoop(t.ctx, solver, t.loop)
	}
	t.wg.Done()
}

// processPattern runs one single-pattern job on a worker goroutine:
// validation, cache lookup, then a bounded solve on a miss.
func (e *Engine) processPattern(ctx context.Context, solver *core.Solver, req Request) JobResult {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		e.stats.canceledJob()
		return JobResult{Err: err, Elapsed: time.Since(start)}
	}
	if err := checkStrategy(req.Strategy); err != nil {
		e.stats.failed()
		return JobResult{Err: err, Elapsed: time.Since(start)}
	}
	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("key.build")
	key := canonicalKey(req)
	sp.End()
	v, hit, err, elapsed := e.solveKeyed(ctx, solver, key, task{kind: taskPattern, req: req}, start)
	if err != nil {
		return JobResult{Err: err, Elapsed: elapsed}
	}
	// Always hand out a rewritten copy — the solved value lives in the
	// cache, so the caller must never see the shared pointer.
	sp = tr.StartSpan("result.rewrite")
	out := rewrite(v.(*core.Result), req)
	sp.End()
	return JobResult{Result: out, CacheHit: hit, Elapsed: elapsed}
}

// solveKeyed is the shared cache-then-solve path of pattern and loop
// jobs, running on a worker goroutine. A hit answers from the cache.
// A miss runs the solver on this worker (no spawned goroutine) under
// a context bounded by the job context and the per-job timeout, and
// caches a successful result; a solve abandoned by cancellation or
// timeout unwinds cooperatively and caches nothing. Concurrent
// identical misses each solve; solver concurrency stays bounded by
// the worker pool.
func (e *Engine) solveKeyed(ctx context.Context, solver *core.Solver, key cacheKey, t task, start time.Time) (any, bool, error, time.Duration) {
	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("cache.lookup")
	v, hit := e.cache.get(key)
	sp.Attr("shard", int64(e.cache.shardIndex(key)))
	if hit {
		sp.Note("hit").End()
		e.stats.hit()
		return v, true, nil, time.Since(start)
	}
	sp.Note("miss").End()

	solveCtx := ctx
	if e.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		solveCtx, cancel = context.WithDeadline(ctx, start.Add(e.opts.JobTimeout))
		defer cancel()
	}
	sp = tr.StartSpan("solve")
	var err error
	// Soak builds may arm a fault injector; it runs before every
	// solve, so an injected stall or failure looks exactly like an
	// organic slow or failing solve.
	if inj := e.opts.Faults; inj != nil {
		err = inj.BeforeSolve(solveCtx)
	}
	if err == nil {
		if t.kind == taskPattern {
			v, err = e.solve(solveCtx, solver, t.req)
		} else {
			v, err = e.solveLoop(solveCtx, solver, t.loop)
		}
	}
	elapsed := time.Since(start)
	aborted := err != nil && solveCtx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	switch {
	case err == nil:
		sp.Note("ok").End()
		e.cache.put(key, v)
		e.stats.solved(elapsed)
		return v, false, nil, elapsed
	case !aborted:
		sp.Note("error").End()
		e.stats.failed()
		return nil, false, err, elapsed
	case ctx.Err() != nil:
		sp.Note("aborted").End()
		e.stats.canceledJob()
		return nil, false, ctx.Err(), elapsed
	default:
		sp.Note("aborted").End()
		e.stats.timedOut()
		return nil, false, fmt.Errorf("%w after %v", ErrTimeout, e.opts.JobTimeout), elapsed
	}
}
