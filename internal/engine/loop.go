// Whole-loop jobs. A loop referencing several arrays cannot give each
// array the full register budget — the AGU's K registers are shared,
// so the engine delegates to core's loop allocator, which distributes
// them by marginal cost. Loop jobs ride the same worker pool, timeout
// handling and statistics as pattern jobs, with their own
// canonicalized cache entries: the key digests the interleaved
// (array, translated-offset) access sequence, which pins down every
// allocation-relevant property of the loop body (per-array patterns
// and the access-to-pattern back-mapping) while ignoring array names,
// absolute offsets and loop bounds.

package engine

import (
	"context"
	"time"

	"dspaddr/internal/core"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/obs"
)

// LoopRequest is one whole-loop allocation job: the K registers are
// distributed over the loop's arrays by marginal cost, exactly as
// core.AllocateLoop does.
type LoopRequest struct {
	// Loop is the loop to allocate.
	Loop model.LoopSpec
	// AGU is the register constraint K and modify range M shared by
	// all arrays.
	AGU model.AGUSpec
	// InterIteration includes loop-back updates in the objective.
	InterIteration bool
	// Strategy names the phase-2 merge heuristic; see Request.Strategy.
	Strategy string
}

// config lowers the request to a core.Config.
func (r LoopRequest) config() core.Config {
	return Request{AGU: r.AGU, InterIteration: r.InterIteration, Strategy: r.Strategy}.config()
}

// LoopJobResult is the outcome of one whole-loop job.
type LoopJobResult struct {
	// Result is the loop allocation, nil if Err is set.
	Result *core.LoopResult
	// Err reports a failed job (see JobResult.Err).
	Err error
	// CacheHit reports that the result came from the cache.
	CacheHit bool
	// Elapsed is the wall time from dequeue to completion.
	Elapsed time.Duration
}

// RunLoop submits one whole-loop job and waits until it has settled;
// it is RunJobs with a single loop job.
func (e *Engine) RunLoop(ctx context.Context, req LoopRequest) LoopJobResult {
	_, out := e.RunJobs(ctx, nil, []LoopRequest{req})
	return out[0]
}

// processLoop runs one whole-loop job on a worker goroutine.
func (e *Engine) processLoop(ctx context.Context, solver *core.Solver, req LoopRequest) LoopJobResult {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		e.stats.canceledJob()
		return LoopJobResult{Err: err, Elapsed: time.Since(start)}
	}
	if err := checkStrategy(req.Strategy); err != nil {
		e.stats.failed()
		return LoopJobResult{Err: err, Elapsed: time.Since(start)}
	}
	if err := req.Loop.Validate(); err != nil {
		e.stats.failed()
		return LoopJobResult{Err: err, Elapsed: time.Since(start)}
	}
	tr := obs.FromContext(ctx)
	sp := tr.StartSpan("key.build")
	key := loopCanonicalKey(req)
	sp.End()
	v, hit, err, elapsed := e.solveKeyed(ctx, solver, key, task{kind: taskLoop, loop: req}, start)
	if err != nil {
		return LoopJobResult{Err: err, Elapsed: elapsed}
	}
	// Always hand out a rewritten copy — the solved value lives in the
	// cache, so the caller must never see the shared pointer.
	sp = tr.StartSpan("result.rewrite")
	out := rewriteLoop(v.(*core.LoopResult), req)
	sp.End()
	return LoopJobResult{Result: out, CacheHit: hit, Elapsed: elapsed}
}

// loopCanonicalKey digests the allocation-relevant identity of a loop
// job: the interleaved access sequence as (array index, offset
// translated by the array's first offset) pairs, plus stride and the
// allocation parameters. Two loops with equal keys have identical
// per-array canonical patterns AND identical access-to-pattern
// back-mappings, so a cached core.LoopResult transfers between them
// by pattern rewriting alone. Array names are interned into dense
// indices through a small stack-resident table, so key construction
// stays allocation-free for loops with up to 16 distinct arrays.
func loopCanonicalKey(req LoopRequest) cacheKey {
	d := newDigest()
	var nameBuf [16]string
	var baseBuf [16]int
	names := nameBuf[:0]
	bases := baseBuf[:0]
	for _, a := range req.Loop.Accesses {
		idx := -1
		for i := range names {
			if names[i] == a.Array {
				idx = i
				break
			}
		}
		if idx < 0 {
			idx = len(names)
			names = append(names, a.Array)
			bases = append(bases, a.Offset)
		}
		d.mixInt(idx)
		d.mixInt(a.Offset - bases[idx])
	}
	d.mixInt(len(req.Loop.Accesses))
	d.mixInt(req.Loop.Stride)
	_, code, _ := merge.ByName(req.Strategy)
	flags := keyFlagLoop
	if req.InterIteration {
		flags |= keyFlagWrap
	}
	return cacheKey{
		h1:          d.h1,
		h2:          d.h2,
		registers:   int32(req.AGU.Registers),
		modifyRange: int32(req.AGU.ModifyRange),
		flags:       flags,
		strategy:    code,
	}
}

// rewriteLoop adapts a cached loop result to the requesting job: same
// budgets, assignments and costs, but echoing the caller's loop and
// per-array patterns. Assignments and index slices are cloned so
// callers can't corrupt the cached entry.
func rewriteLoop(cached *core.LoopResult, req LoopRequest) *core.LoopResult {
	pats, back := req.Loop.Patterns()
	out := &core.LoopResult{
		Loop:          req.Loop,
		Arrays:        make([]core.ArrayAllocation, len(cached.Arrays)),
		TotalCost:     cached.TotalCost,
		RegistersUsed: cached.RegistersUsed,
	}
	for i, aa := range cached.Arrays {
		res := *aa.Result
		res.Pattern = pats[i]
		res.Assignment = aa.Result.Assignment.Clone()
		out.Arrays[i] = core.ArrayAllocation{
			Result:          &res,
			GlobalRegisters: append([]int(nil), aa.GlobalRegisters...),
			LoopAccess:      append([]int(nil), back[i]...),
		}
	}
	return out
}
