package engine

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dspaddr/internal/core"
	"dspaddr/internal/model"
)

func testRequest(offsets ...int) Request {
	return Request{
		Pattern: model.NewPattern(offsets...),
		AGU:     model.AGUSpec{Registers: 2, ModifyRange: 1},
	}
}

// TestRunMatchesDirectAllocate checks the engine returns exactly what
// the underlying allocator returns.
func TestRunMatchesDirectAllocate(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	req := Request{Pattern: model.PaperExample(), AGU: model.AGUSpec{Registers: 1, ModifyRange: 1}}
	got := e.Run(context.Background(), req)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want, err := core.Allocate(req.Pattern, req.config())
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Cost != want.Cost {
		t.Fatalf("cost %d, want %d", got.Result.Cost, want.Cost)
	}
	if !reflect.DeepEqual(got.Result.Assignment, want.Assignment) {
		t.Fatalf("assignment %v, want %v", got.Result.Assignment, want.Assignment)
	}
}

// TestBoundedWorkers instruments the solver and checks that observed
// solver concurrency never exceeds the pool size even when far more
// jobs are submitted at once.
func TestBoundedWorkers(t *testing.T) {
	const workers = 4
	const jobs = 64
	e := New(Options{Workers: workers, CacheSize: -1})
	defer e.Close()

	var inFlight, peak atomic.Int64
	e.solve = func(ctx context.Context, s *core.Solver, r Request) (*core.Result, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return s.Allocate(ctx, r.Pattern, r.config())
	}

	reqs := make([]Request, jobs)
	for i := range reqs {
		reqs[i] = testRequest(i, i+1, i+3) // distinct canonical forms
	}
	for i, res := range e.RunBatch(context.Background(), reqs) {
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent solves, pool size %d", p, workers)
	}
	if s := e.Stats(); s.Jobs != jobs {
		t.Fatalf("stats.Jobs = %d, want %d", s.Jobs, jobs)
	}
}

// TestCacheHitDeterminism submits the same pattern twice and requires
// the second result to be a cache hit identical to the first.
func TestCacheHitDeterminism(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	req := Request{Pattern: model.PaperExample(), AGU: model.AGUSpec{Registers: 1, ModifyRange: 1}}
	first := e.Run(context.Background(), req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first request must not hit the cache")
	}
	second := e.Run(context.Background(), req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Fatal("second identical request must hit the cache")
	}
	if second.Result.Cost != first.Result.Cost ||
		second.Result.VirtualRegisters != first.Result.VirtualRegisters ||
		second.Result.Merged != first.Result.Merged {
		t.Fatalf("cache hit differs: %+v vs %+v", second.Result, first.Result)
	}
	if !reflect.DeepEqual(second.Result.Assignment, first.Result.Assignment) {
		t.Fatalf("assignment %v, want %v", second.Result.Assignment, first.Result.Assignment)
	}
	if s := e.Stats(); s.CacheHits != 1 || s.CacheMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 1/1", s.CacheHits, s.CacheMisses)
	}
}

// TestCacheTranslationInvariance checks that a pattern translated by a
// constant offset hits the entry of the untranslated pattern and still
// echoes its own pattern back.
func TestCacheTranslationInvariance(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()

	base := e.Run(context.Background(), testRequest(1, 0, 2, -1))
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	shifted := testRequest(8, 7, 9, 6) // +7 translation, same distances
	hit := e.Run(context.Background(), shifted)
	if hit.Err != nil {
		t.Fatal(hit.Err)
	}
	if !hit.CacheHit {
		t.Fatal("translated pattern should hit the canonical cache entry")
	}
	if hit.Result.Cost != base.Result.Cost {
		t.Fatalf("translated cost %d, want %d", hit.Result.Cost, base.Result.Cost)
	}
	if !reflect.DeepEqual(hit.Result.Pattern.Offsets, shifted.Pattern.Offsets) {
		t.Fatalf("hit echoes pattern %v, want caller's %v", hit.Result.Pattern.Offsets, shifted.Pattern.Offsets)
	}
	// Direct solve of the shifted pattern must agree with the rewrite.
	direct, err := core.Allocate(shifted.Pattern, shifted.config())
	if err != nil {
		t.Fatal(err)
	}
	if hit.Result.Cost != direct.Cost {
		t.Fatalf("rewritten cost %d, direct solve %d", hit.Result.Cost, direct.Cost)
	}
}

// TestCacheIsolation mutates both a cache-miss and a cache-hit result
// and checks the cached entry is unaffected either way (misses hand
// out a clone of the value that went into the cache, not the value
// itself).
func TestCacheIsolation(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	req := Request{Pattern: model.PaperExample(), AGU: model.AGUSpec{Registers: 1, ModifyRange: 1}}

	miss := e.Run(context.Background(), req)
	if miss.CacheHit {
		t.Fatal("first request must be a miss")
	}
	miss.Result.Assignment.Paths[0][0] = 99

	hit := e.Run(context.Background(), req)
	if !hit.CacheHit {
		t.Fatal("expected cache hit")
	}
	if hit.Result.Assignment.Paths[0][0] == 99 {
		t.Fatal("mutating a cache-miss result corrupted the cached entry")
	}
	hit.Result.Assignment.Paths[0][0] = 99

	again := e.Run(context.Background(), req)
	if again.Result.Assignment.Paths[0][0] == 99 {
		t.Fatal("mutating a cache-hit result corrupted the cached entry")
	}
}

// TestConcurrentMixedLoad hammers Run, RunBatch and Stats from many
// goroutines; run under -race this is the engine's data-race test.
func TestConcurrentMixedLoad(t *testing.T) {
	e := New(Options{Workers: 4, CacheSize: 64})
	defer e.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch i % 3 {
				case 0:
					res := e.Run(context.Background(), testRequest(i%5, (i%5)+1, (i%5)+2, 0))
					if res.Err != nil {
						t.Errorf("run: %v", res.Err)
					}
				case 1:
					reqs := []Request{testRequest(0, 1, 2), testRequest(g, g+2)}
					for _, r := range e.RunBatch(context.Background(), reqs) {
						if r.Err != nil {
							t.Errorf("batch: %v", r.Err)
						}
					}
				default:
					e.Stats()
				}
			}
		}(g)
	}
	wg.Wait()

	s := e.Stats()
	if s.CacheHits == 0 {
		t.Error("repeated patterns produced no cache hits")
	}
	if s.Errors != 0 || s.Timeouts != 0 || s.Canceled != 0 {
		t.Errorf("unexpected failures in stats: %+v", s)
	}
}

func testLoop() model.LoopSpec {
	return model.LoopSpec{
		Var: "i", From: 0, To: 9, Stride: 1,
		Accesses: []model.Access{
			{Array: "A", Offset: 1}, {Array: "B", Offset: 0},
			{Array: "A", Offset: 0}, {Array: "B", Offset: 2},
		},
	}
}

// TestRunLoopMatchesAllocateLoop checks whole-loop jobs agree with the
// library's shared-budget allocation.
func TestRunLoopMatchesAllocateLoop(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	req := LoopRequest{Loop: testLoop(), AGU: model.AGUSpec{Registers: 3, ModifyRange: 1}}
	got := e.RunLoop(context.Background(), req)
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	want, err := core.AllocateLoop(req.Loop, req.config())
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.TotalCost != want.TotalCost || got.Result.RegistersUsed != want.RegistersUsed {
		t.Fatalf("cost/registers %d/%d, want %d/%d",
			got.Result.TotalCost, got.Result.RegistersUsed, want.TotalCost, want.RegistersUsed)
	}
	if len(got.Result.Arrays) != len(want.Arrays) {
		t.Fatalf("%d arrays, want %d", len(got.Result.Arrays), len(want.Arrays))
	}
}

// TestRunLoopCacheHit checks loop jobs cache, translate and stay
// isolated from caller mutation.
func TestRunLoopCacheHit(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	agu := model.AGUSpec{Registers: 3, ModifyRange: 1}

	first := e.RunLoop(context.Background(), LoopRequest{Loop: testLoop(), AGU: agu})
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first loop job must not hit the cache")
	}

	// Same body shape: arrays renamed, offsets translated per array,
	// different bounds. Must hit the same entry.
	translated := model.LoopSpec{
		Var: "j", From: 5, To: 50, Stride: 1,
		Accesses: []model.Access{
			{Array: "X", Offset: 8}, {Array: "Y", Offset: -3},
			{Array: "X", Offset: 7}, {Array: "Y", Offset: -1},
		},
	}
	second := e.RunLoop(context.Background(), LoopRequest{Loop: translated, AGU: agu})
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Fatal("translated loop should hit the canonical cache entry")
	}
	if second.Result.TotalCost != first.Result.TotalCost {
		t.Fatalf("translated cost %d, want %d", second.Result.TotalCost, first.Result.TotalCost)
	}
	if second.Result.Arrays[0].Result.Pattern.Array != "X" {
		t.Fatalf("hit echoes array %q, want caller's X", second.Result.Arrays[0].Result.Pattern.Array)
	}
	direct, err := core.AllocateLoop(translated, LoopRequest{AGU: agu}.config())
	if err != nil {
		t.Fatal(err)
	}
	if second.Result.TotalCost != direct.TotalCost {
		t.Fatalf("rewritten cost %d, direct solve %d", second.Result.TotalCost, direct.TotalCost)
	}

	// Mutating a hit must not corrupt the cached entry.
	second.Result.Arrays[0].Result.Assignment.Paths[0][0] = 99
	second.Result.Arrays[0].GlobalRegisters[0] = 99
	third := e.RunLoop(context.Background(), LoopRequest{Loop: testLoop(), AGU: agu})
	if third.Result.Arrays[0].Result.Assignment.Paths[0][0] == 99 ||
		third.Result.Arrays[0].GlobalRegisters[0] == 99 {
		t.Fatal("mutating a cache-hit loop result corrupted the cached entry")
	}
}

// TestRunLoopErrors covers loop-job validation: too few registers for
// the array count, bad strategy, empty loop.
func TestRunLoopErrors(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	ctx := context.Background()

	short := LoopRequest{Loop: testLoop(), AGU: model.AGUSpec{Registers: 1, ModifyRange: 1}}
	if res := e.RunLoop(ctx, short); res.Err == nil {
		t.Error("2 arrays on 1 register accepted")
	}
	bad := LoopRequest{Loop: testLoop(), AGU: model.AGUSpec{Registers: 2, ModifyRange: 1}, Strategy: "nope"}
	if res := e.RunLoop(ctx, bad); res.Err == nil {
		t.Error("unknown strategy accepted")
	}
	if res := e.RunLoop(ctx, LoopRequest{AGU: model.AGUSpec{Registers: 1, ModifyRange: 1}}); res.Err == nil {
		t.Error("empty loop accepted")
	}
}

// TestRunJobsMatchesSingleRuns submits pattern and loop jobs as one
// batch and checks each result, in each kind's job order, against the
// same job run alone on a fresh engine; a bad job fails in place.
func TestRunJobsMatchesSingleRuns(t *testing.T) {
	agu := model.AGUSpec{Registers: 3, ModifyRange: 1}
	reqs := []Request{
		testRequest(1, 0, 2, -1, 1, 0, -2),
		{Pattern: model.NewPattern(0, 1), AGU: agu, Strategy: "nope"},
		testRequest(0, 3, 1, 4),
	}
	loops := []LoopRequest{
		{Loop: testLoop(), AGU: agu},
		{Loop: testLoop(), AGU: model.AGUSpec{Registers: 1, ModifyRange: 1}}, // 2 arrays, 1 register
	}
	e := New(Options{Workers: 2, CacheSize: -1})
	defer e.Close()
	res, loopRes := e.RunJobs(context.Background(), reqs, loops)
	if len(res) != len(reqs) || len(loopRes) != len(loops) {
		t.Fatalf("%d and %d results for %d and %d jobs", len(res), len(loopRes), len(reqs), len(loops))
	}
	single := New(Options{Workers: 1, CacheSize: -1})
	defer single.Close()
	for i, req := range reqs {
		want := single.Run(context.Background(), req)
		if (res[i].Err == nil) != (want.Err == nil) {
			t.Fatalf("pattern job %d: err %v, alone %v", i, res[i].Err, want.Err)
		}
		if want.Err == nil && !reflect.DeepEqual(res[i].Result, want.Result) {
			t.Fatalf("pattern job %d: %+v, alone %+v", i, res[i].Result, want.Result)
		}
	}
	for i, req := range loops {
		want := single.RunLoop(context.Background(), req)
		if (loopRes[i].Err == nil) != (want.Err == nil) {
			t.Fatalf("loop job %d: err %v, alone %v", i, loopRes[i].Err, want.Err)
		}
		if want.Err == nil && !reflect.DeepEqual(loopRes[i].Result, want.Result) {
			t.Fatalf("loop job %d: %+v, alone %+v", i, loopRes[i].Result, want.Result)
		}
	}
	if res[1].Err == nil || loopRes[1].Err == nil {
		t.Fatal("the bad pattern and loop jobs succeeded")
	}
	if out, loopOut := e.RunJobs(context.Background(), nil, nil); len(out) != 0 || len(loopOut) != 0 {
		t.Fatalf("empty batch: %v, %v", out, loopOut)
	}
}

// TestRunJobsCanceledSettles cancels a batch once its first job's
// solve holds the only worker: RunJobs returns once that solve is
// abandoned, with every job failed by the cancellation, and the worker
// is free again.
func TestRunJobsCanceledSettles(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	started := make(chan struct{})
	var once sync.Once
	solve := e.solve
	e.solve = func(ctx context.Context, s *core.Solver, r Request) (*core.Result, error) {
		once.Do(func() { close(started) })
		return solve(ctx, s, r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	reqs := []Request{pathologicalWrapRequest(), testRequest(0, 1, 2), testRequest(0, 2, 4)}
	res, loopRes := e.RunJobs(ctx, reqs, []LoopRequest{{Loop: testLoop(), AGU: model.AGUSpec{Registers: 3, ModifyRange: 1}}})
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("pattern job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if !errors.Is(loopRes[0].Err, context.Canceled) {
		t.Errorf("loop job: err = %v, want context.Canceled", loopRes[0].Err)
	}
	if quick := e.Run(context.Background(), testRequest(0, 1, 2)); quick.Err != nil {
		t.Fatalf("follow-up job after the canceled batch: %v", quick.Err)
	}
	if s := e.Stats(); s.Canceled == 0 {
		t.Fatalf("stats.Canceled = 0, want >0: %+v", s)
	}
}

// TestJobTimeout checks that a slow solve is abandoned with ErrTimeout
// and counted in the stats. The per-job deadline reaches the solver as
// its context (cooperative cancellation), so the cooperating fake here
// returns promptly at the deadline and the worker is freed — the
// pre-overhaul engine kept the worker occupied until the solve chose
// to finish.
func TestJobTimeout(t *testing.T) {
	e := New(Options{Workers: 1, JobTimeout: 5 * time.Millisecond, CacheSize: -1})
	defer e.Close()
	e.solve = func(ctx context.Context, s *core.Solver, r Request) (*core.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	res := e.Run(context.Background(), testRequest(0, 1))
	if !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", res.Err)
	}
	if s := e.Stats(); s.Timeouts != 1 {
		t.Fatalf("stats.Timeouts = %d, want 1", s.Timeouts)
	}
}

// TestTimeoutKeepsWorkerOccupied pins the bounded-concurrency rule
// for solves that ignore their cancellation context: such a solve
// keeps its worker busy (solves only ever run on the worker that
// dequeued the job), so later jobs cannot pile extra solves on top of
// it. It also pins the submission contract: the Run whose job holds
// the worker returns only after its solve has returned, even though
// its context expired long before.
func TestTimeoutKeepsWorkerOccupied(t *testing.T) {
	e := New(Options{Workers: 1, JobTimeout: time.Millisecond, CacheSize: -1})
	var concurrent, peak, solved atomic.Int64
	var returned atomic.Bool
	errBlocked := errors.New("solver blocked for the test")
	block := make(chan struct{})
	e.solve = func(ctx context.Context, s *core.Solver, r Request) (*core.Result, error) {
		n := concurrent.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-block
		concurrent.Add(-1)
		returned.Store(true)
		return nil, errBlocked
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := e.Run(ctx, testRequest(i, i+1))
			switch {
			case res.Err == nil:
				t.Error("blocked solve reported success")
			case errors.Is(res.Err, errBlocked):
				solved.Add(1)
				if !returned.Load() {
					t.Error("Run returned before its solve did")
				}
			}
		}(i)
	}
	// Hold the solve past its job's deadline and its caller's context.
	<-ctx.Done()
	close(block)
	wg.Wait()
	e.Close()
	if p := peak.Load(); p != 1 {
		t.Fatalf("peak concurrent solves %d, want 1 — timed-out jobs must not stack solves", p)
	}
	if n := solved.Load(); n != 1 {
		t.Fatalf("%d Runs returned the blocked solve's error, want 1 — the Run holding the worker must wait for its solve", n)
	}
}

// pathologicalWrapRequest returns a wrap-objective request whose
// phase-1 branch-and-bound exhausts its full node budget (dense intra
// edges from a tight offset spread, and a stride above M that no
// lower bound settles), making the uncancelled solve take on the
// order of 10^7–10^8 ns. The cancellation tests use it as the "solve
// that would otherwise occupy a worker for a long time".
func pathologicalWrapRequest() Request {
	offs := []int{3, 4, 1, -3, -1, -1, 4, 3, -3, 4, 4, -4, 4, 3, -3, -1, 2, 2, -3, -2, 0, 1}
	return Request{
		Pattern:        model.Pattern{Array: "A", Stride: 3, Offsets: offs},
		AGU:            model.AGUSpec{Registers: 3, ModifyRange: 2},
		InterIteration: true,
	}
}

// TestCancellationFreesWorker pins the tentpole cancellation property
// end to end with the real solver: canceling a job whose pathological
// phase-1 search is in flight frees its worker long before the full
// solve would have completed, so a subsequent job on the same
// single-worker engine is served promptly.
func TestCancellationFreesWorker(t *testing.T) {
	slow := pathologicalWrapRequest()

	// Reference point: how long the full solve takes uncancelled.
	full := New(Options{Workers: 1, CacheSize: -1})
	fullStart := time.Now()
	if res := full.Run(context.Background(), slow); res.Err != nil {
		t.Fatal(res.Err)
	}
	fullDur := time.Since(fullStart)
	full.Close()

	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond) // let the solve start
		cancel()
	}()
	canceledStart := time.Now()
	res := e.Run(ctx, slow)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.Err)
	}
	// The single worker must be free again: a quick job completes, and
	// the whole canceled-plus-followup sequence beats the full solve
	// by a wide margin (the search polls ctx every few hundred nodes).
	quick := e.Run(context.Background(), testRequest(0, 1, 2))
	if quick.Err != nil {
		t.Fatalf("follow-up job after cancellation: %v", quick.Err)
	}
	if reclaimed := time.Since(canceledStart); reclaimed > fullDur/2 {
		t.Fatalf("worker reclaimed after %v; full solve takes %v — cancellation did not free the worker early",
			reclaimed, fullDur)
	}
	if s := e.Stats(); s.Canceled == 0 {
		t.Fatalf("stats.Canceled = 0, want >0: %+v", s)
	}
}

// TestCancellationFreesWorkerOptimal is the same property for the
// exact phase 2: an N=4096 "optimal" job merging 2,518 phase-1 paths
// into two registers runs ~3 s on a 2-vCPU host, and canceling it
// mid-merge frees the single worker within milliseconds.
func TestCancellationFreesWorkerOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(4096))
	offs := make([]int, model.MaxAccesses)
	for i := range offs {
		offs[i] = rng.Intn(4000)
	}
	slow := Request{
		Pattern:  model.NewPattern(offs...),
		AGU:      model.AGUSpec{Registers: 2, ModifyRange: 0},
		Strategy: "optimal",
	}
	e := New(Options{Workers: 1, CacheSize: -1})
	defer e.Close()
	// The same job with registers to spare is phase 1 alone; cancel
	// well after that much time, inside the merge.
	spare := slow
	spare.AGU.Registers = model.MaxAccesses
	start := time.Now()
	if res := e.Run(context.Background(), spare); res.Err != nil {
		t.Fatal(res.Err)
	}
	phase1 := time.Since(start)
	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan time.Time, 1)
	go func() {
		time.Sleep(2*phase1 + 10*time.Millisecond)
		canceled <- time.Now()
		cancel()
	}()
	res := e.Run(ctx, slow)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.Err)
	}
	if quick := e.Run(context.Background(), testRequest(0, 1, 2)); quick.Err != nil {
		t.Fatalf("follow-up job after cancellation: %v", quick.Err)
	}
	if reclaimed := time.Since(<-canceled); reclaimed > 100*time.Millisecond {
		t.Fatalf("worker reclaimed %v after the cancel", reclaimed)
	} else {
		t.Logf("worker reclaimed %v after the cancel", reclaimed)
	}
}

// TestShardedCacheRace hammers the sharded cache from 64 goroutines
// with heavily overlapping keys (including translated duplicates), so
// concurrent identical misses race to put the same entry. Run under
// -race this is the cache's data-race test; the counter identity
// checked afterwards pins that every request was answered exactly
// once, with no outcome lost between shards.
func TestShardedCacheRace(t *testing.T) {
	e := New(Options{Workers: 8})
	defer e.Close()

	const goroutines = 64
	const perG = 32
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// 8 canonical identities; every other request is a
				// translated duplicate, so hits and misses of one key
				// occur concurrently.
				base := (g + i) % 8
				shift := (i % 2) * 10
				res := e.Run(context.Background(), testRequest(base+shift, base+shift+1, shift))
				if res.Err != nil {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}
	s := e.Stats()
	const total = goroutines * perG
	if s.Jobs != total {
		t.Fatalf("stats.Jobs = %d, want %d", s.Jobs, total)
	}
	if s.CacheHits+s.CacheMisses != total {
		t.Fatalf("hits %d + misses %d != %d requests",
			s.CacheHits, s.CacheMisses, total)
	}
	if s.Errors != 0 || s.Timeouts != 0 || s.Canceled != 0 {
		t.Fatalf("unexpected failure counters: %+v", s)
	}
}

// TestErrorPaths covers invalid requests: bad strategy, bad AGU, empty
// pattern, canceled context.
func TestErrorPaths(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	ctx := context.Background()

	bad := testRequest(0, 1)
	bad.Strategy = "no-such-strategy"
	if res := e.Run(ctx, bad); res.Err == nil {
		t.Error("unknown strategy accepted")
	}

	noRegs := testRequest(0, 1)
	noRegs.AGU.Registers = 0
	if res := e.Run(ctx, noRegs); res.Err == nil {
		t.Error("zero-register AGU accepted")
	}

	empty := Request{AGU: model.AGUSpec{Registers: 1, ModifyRange: 1}}
	if res := e.Run(ctx, empty); res.Err == nil {
		t.Error("empty pattern accepted")
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if res := e.Run(canceled, testRequest(0, 1)); !errors.Is(res.Err, context.Canceled) {
		t.Errorf("canceled context: err = %v", res.Err)
	}
}

// TestClose checks Close drains the pool and subsequent Run fails
// cleanly.
func TestClose(t *testing.T) {
	e := New(Options{Workers: 2})
	if res := e.Run(context.Background(), testRequest(0, 1)); res.Err != nil {
		t.Fatal(res.Err)
	}
	e.Close()
	e.Close() // idempotent
	if res := e.Run(context.Background(), testRequest(0, 1)); res.Err == nil {
		t.Fatal("Run after Close succeeded")
	}
}

// TestCacheEviction checks the per-shard LRU cap holds. Keys are
// handcrafted with identical digest low bits so they all land in one
// shard — the cap under test is that shard's slice of the total.
func TestCacheEviction(t *testing.T) {
	c := newResultCache(2 * shardCount()) // two entries per shard
	key := func(i int) cacheKey {
		// h1 = 0 pins shard 0; registers distinguishes the keys.
		return cacheKey{h1: 0, h2: uint64(i), registers: int32(i)}
	}
	r := &core.Result{}
	c.put(key(1), r)
	c.put(key(2), r)
	c.put(key(3), r) // evicts key(1)
	if _, ok := c.get(key(1)); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.get(key(2)); !ok {
		t.Fatal("entry 2 missing")
	}
	c.put(key(4), r) // 3 older than 2 after the get above → evict 3
	if _, ok := c.get(key(3)); ok {
		t.Fatal("LRU order ignored recency of get")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if c.cap() != 2*shardCount() || c.shardsN() != shardCount() {
		t.Fatalf("cap/shards = %d/%d, want %d/%d", c.cap(), c.shardsN(), 2*shardCount(), shardCount())
	}
}

// TestCacheCapacityExact pins that the per-shard caps sum to exactly
// the configured size: no fill pattern can push the entry count past
// CacheSize, and caches smaller than the default shard count shed
// shards instead of rounding their capacity up.
func TestCacheCapacityExact(t *testing.T) {
	for _, size := range []int{1, 3, shardCount() - 1, shardCount() + 1, 100} {
		c := newResultCache(size)
		if c.cap() != size {
			t.Fatalf("size %d: cap() = %d", size, c.cap())
		}
		total := 0
		for i := range c.shards {
			total += c.shards[i].max
		}
		if total != size {
			t.Fatalf("size %d: shard caps sum to %d", size, total)
		}
		r := &core.Result{}
		for i := 0; i < 4*size+16; i++ {
			c.put(cacheKey{h1: uint64(i), h2: uint64(i), registers: int32(i)}, r)
		}
		if n := c.len(); n > size {
			t.Fatalf("size %d: %d entries retained, exceeds configured bound", size, n)
		}
	}
}

// TestCanonicalKey checks translation collapses and parameter changes
// separate.
func TestCanonicalKey(t *testing.T) {
	a := testRequest(1, 0, 2)
	b := testRequest(11, 10, 12)
	if canonicalKey(a) != canonicalKey(b) {
		t.Error("translated patterns should share a key")
	}
	c := testRequest(1, 0, 2)
	c.AGU.ModifyRange = 2
	if canonicalKey(a) == canonicalKey(c) {
		t.Error("different modify range must not share a key")
	}
	d := testRequest(1, 0, 2)
	d.Pattern.Stride = 4
	if canonicalKey(a) == canonicalKey(d) {
		t.Error("different stride must not share a key")
	}
	e := testRequest(1, 0, 2)
	e.Strategy = "optimal"
	if canonicalKey(a) == canonicalKey(e) {
		t.Error("different strategy must not share a key")
	}
}
