package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"dspaddr/internal/cluster"
	"dspaddr/internal/core"
	"dspaddr/internal/distgraph"
	"dspaddr/internal/engine"
	"dspaddr/internal/frontend"
	"dspaddr/internal/merge"
	"dspaddr/internal/model"
	"dspaddr/internal/pathcover"
)

// span is one timed call of the in-process replay.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index into the span list, -1 for an op's root
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps the replay's spans in memory until the replay ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// replayed is what the replay measured over the ops it covered.
type replayed struct {
	ops                        int
	parses                     int
	solves                     int   // engine misses re-solved from outside
	bbNodes, virtualRegs, merg int64 // exact counts over the re-solves
	cost                       []int64
	total                      map[string]time.Duration // summed span time by name
	spans                      []span
}

// replayer runs an op stream in process through the same public entry
// points the server and gateway use, timing each layer's calls. The
// solver layers run behind the engine's walls, so every engine miss
// is solved again from outside: once by core's Allocate, and once
// step by step through the calls core makes — distgraph's Rebuild (the
// reusable form of distgraph.Build), pathcover.MinCoverCtx and
// merge.ReduceContext — each on reused scratch, as core's Solver does.
type replayer struct {
	eng    *engine.Engine
	ring   *cluster.Ring // cluster workloads only
	solver *core.Solver
	graph  distgraph.Graph
	cover  pathcover.Scratch
	merge  merge.Scratch
	tr     *tracer
	out    *replayed
}

// replay warms an engine configured like rcaserve's defaults with the
// stream's warm-up ops, then replays open-loop ops in order until they
// run out or budget is spent.
func replay(spec *workloadSpec, s *stream, budget time.Duration) (*replayed, error) {
	r := &replayer{
		eng:    engine.New(engine.Options{JobTimeout: 5 * time.Second}),
		solver: core.NewSolver(),
		out:    &replayed{total: make(map[string]time.Duration)},
	}
	defer r.eng.Close()
	if spec.gateway {
		names := make([]string, spec.nodes)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i+1)
		}
		ring, err := cluster.NewRing(names, 0)
		if err != nil {
			return nil, err
		}
		r.ring = ring
	}
	r.tr = &tracer{t0: time.Now()}
	for _, op := range s.warm {
		if _, err := r.op(op, -1); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	r.tr.spans = r.tr.spans[:0]
	r.out = &replayed{total: make(map[string]time.Duration)}
	deadline := time.Now().Add(budget)
	for i, op := range s.open {
		if time.Now().After(deadline) {
			break
		}
		r.tr.op = i
		root := r.tr.start("op", -1)
		cost, err := r.op(op, root)
		r.tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		r.out.cost = append(r.out.cost, cost)
		r.out.ops++
	}
	for _, sp := range r.tr.spans {
		r.out.total[sp.Name] += time.Duration(sp.End - sp.Start)
	}
	r.out.spans = r.tr.spans
	return r.out, nil
}

// op replays one op and returns its served cost; cancel ops are
// skipped, as their jobs may never run on the server.
func (r *replayer) op(op *Op, root int) (int64, error) {
	if op.Kind == opCancel {
		return 0, nil
	}
	ctx := context.Background()
	if r.ring != nil {
		sp := r.tr.start("cluster.route", root)
		r.ring.Owner(routeKey(op.Jobs[0]))
		r.tr.end(sp)
	}
	var cost int64
	var pats []engine.Request
	var patJobs []*Job
	for _, j := range op.Jobs {
		if j.Loop == "" {
			pats = append(pats, engine.Request{Pattern: j.pattern(), AGU: j.agu(), InterIteration: j.Wrap, Strategy: j.Strategy})
			patJobs = append(patJobs, j)
			continue
		}
		sp := r.tr.start("frontend.parse", root)
		prog, err := frontend.Parse(j.Loop, j.Bindings)
		r.tr.end(sp)
		if err != nil {
			return 0, err
		}
		r.out.parses++
		sp = r.tr.start("engine.run", root)
		res := r.eng.RunLoop(ctx, engine.LoopRequest{Loop: prog.Loop, AGU: j.agu(), InterIteration: j.Wrap, Strategy: j.Strategy})
		r.tr.end(sp)
		if res.Err != nil {
			return 0, res.Err
		}
		for _, a := range res.Result.Arrays {
			cost += int64(a.Result.Cost)
		}
		if !res.CacheHit {
			if err := r.resolveLoop(ctx, prog.Loop, j, res.Result, root); err != nil {
				return 0, err
			}
		}
	}
	if len(pats) == 0 {
		return cost, nil
	}
	var results []engine.JobResult
	sp := r.tr.start("engine.run", root)
	if len(pats) == 1 {
		results = []engine.JobResult{r.eng.Run(ctx, pats[0])}
	} else {
		results = r.eng.RunBatch(ctx, pats)
	}
	r.tr.end(sp)
	for i, res := range results {
		if res.Err != nil {
			return 0, res.Err
		}
		cost += int64(res.Result.Cost)
		if !res.CacheHit {
			if err := r.resolve(ctx, patJobs[i], res.Result.Cost, root); err != nil {
				return 0, err
			}
		}
	}
	return cost, nil
}

func (j *Job) pattern() model.Pattern {
	return model.Pattern{Stride: j.Stride, Offsets: j.Offsets}
}

func (j *Job) agu() model.AGUSpec { return model.AGUSpec{Registers: j.K, ModifyRange: j.M} }

func strategyOf(name string) merge.Strategy {
	switch name {
	case "smallest":
		return merge.SmallestTwo{}
	case "naive":
		return merge.Naive{}
	default:
		return merge.Greedy{}
	}
}

// routeKey places a submission on the ring as the gateway does for a
// single job: pattern jobs by engine.RouteKey, loop jobs by a digest
// of their text.
func routeKey(j *Job) uint64 {
	if j.Loop == "" {
		return engine.RouteKey(engine.Request{Pattern: j.pattern(), AGU: j.agu(), InterIteration: j.Wrap, Strategy: j.Strategy})
	}
	h := fnv.New64a()
	h.Write([]byte(j.Loop)) //nolint:errcheck // hash writes never fail
	return h.Sum64()
}

// resolve solves an engine miss again from outside: whole through
// core, then phase by phase, and checks that both agree with the
// engine's cost.
func (r *replayer) resolve(ctx context.Context, j *Job, want int, root int) error {
	cfg := core.Config{AGU: j.agu(), InterIteration: j.Wrap, Strategy: strategyOf(j.Strategy)}
	sp := r.tr.start("core.allocate", root)
	res, err := r.solver.Allocate(ctx, j.pattern(), cfg)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	got, err := r.phases(ctx, j.pattern(), j.K, j.M, j.Wrap, cfg.Strategy, sp)
	if err != nil {
		return err
	}
	if res.Cost != want || got != want {
		return fmt.Errorf("pattern %v: engine cost %d, core %d, phases %d", j.Offsets, want, res.Cost, got)
	}
	r.out.solves++
	return nil
}

// resolveLoop is resolve for a loop miss: core's AllocateLoop whole,
// then each array's phases at the register budget the loop gave it.
func (r *replayer) resolveLoop(ctx context.Context, loop model.LoopSpec, j *Job, served *core.LoopResult, root int) error {
	cfg := core.Config{AGU: j.agu(), InterIteration: j.Wrap, Strategy: strategyOf(j.Strategy)}
	sp := r.tr.start("core.allocate", root)
	res, err := r.solver.AllocateLoop(ctx, loop, cfg)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	if res.TotalCost != served.TotalCost {
		return fmt.Errorf("loop: engine cost %d, core %d", served.TotalCost, res.TotalCost)
	}
	for _, a := range res.Arrays {
		if _, err := r.phases(ctx, a.Result.Pattern, a.Result.Config.AGU.Registers, j.M, j.Wrap, cfg.Strategy, sp); err != nil {
			return err
		}
	}
	r.out.solves++
	return nil
}

// phases runs the allocator's two phases through their public entry
// points and returns the assignment's cost.
func (r *replayer) phases(ctx context.Context, pat model.Pattern, k, m int, wrap bool, s merge.Strategy, parent int) (int, error) {
	sp := r.tr.start("distgraph.build", parent)
	err := r.graph.Rebuild(pat, m)
	r.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = r.tr.start("pathcover.cover", parent)
	cover, err := pathcover.MinCoverCtx(ctx, &r.graph, wrap, nil, &r.cover)
	r.tr.end(sp)
	if err != nil {
		return 0, err
	}
	r.out.bbNodes += int64(cover.Nodes)
	r.out.virtualRegs += int64(cover.K())
	if cover.K() <= k {
		return cover.Assignment().Cost(pat, m, wrap), nil
	}
	sp = r.tr.start("merge.reduce", parent)
	asg, err := merge.ReduceContext(ctx, s, cover.Paths, pat, m, wrap, k, &r.merge)
	r.tr.end(sp)
	if err != nil {
		return 0, err
	}
	r.out.merg += int64(cover.K() - k)
	return asg.Cost(pat, m, wrap), nil
}

// writeSpans dumps the replay's spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
