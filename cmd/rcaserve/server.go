package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/core"
	"dspaddr/internal/engine"
	"dspaddr/internal/faults"
	"dspaddr/internal/frontend"
	"dspaddr/internal/jobs"
	"dspaddr/internal/obs"
	"dspaddr/internal/wal"
)

// serverOptions configures the service pieces that sit above the
// engine: the async job queue, result store and build identity.
type serverOptions struct {
	// queueCapacity bounds admitted-but-not-started async jobs
	// (0 = jobs.DefaultQueueCapacity).
	queueCapacity int
	// storeCapacity bounds retained async results
	// (0 = jobs.DefaultStoreCapacity).
	storeCapacity int
	// ttl is how long finished async results stay fetchable
	// (0 = jobs.DefaultTTL).
	ttl time.Duration
	// runners caps concurrently executing async jobs; 0 means the
	// engine's worker count, so the async path alone can saturate
	// the solver pool.
	runners int
	// run overrides the async executor; tests use it to gate job
	// completion deterministically. nil means the real engine path.
	run jobs.Runner
	// version is the build identity reported by /healthz, /v1/stats
	// and /metrics.
	version string
	// nodeID, when non-empty, names this node in a cluster: async job
	// IDs carry it as their routing tag (jobs.NodeOf) and /v1/stats
	// and /healthz report it. Alphanumeric only — '-' is the ID
	// separator (validated at the flag).
	nodeID string
	// faults, when non-nil, is the armed chaos injector shared with
	// the engine; it turns on the /debug/soak endpoint (process
	// introspection + live re-arming) and accelerates the job store
	// TTL if the spec says so. Production runs leave it nil.
	faults *faults.Injector
	// obs is the observability bundle (trace ring, histograms,
	// logger); nil gets a silent default.
	obs *observability
	// wal, when non-nil, is the opened write-ahead log making the
	// async job lifecycle crash-safe; recovered is its boot replay.
	// The job manager takes ownership and closes the log.
	wal       *wal.Log
	recovered []wal.JobState
}

// server wires the batch allocation engine and the async job manager
// to the HTTP API.
type server struct {
	engine   *engine.Engine
	jobs     *jobs.Manager
	version  string
	nodeID   string // "" outside cluster mode
	started  time.Time
	requests atomic.Uint64
	// sheds counts synchronous requests rejected by adaptive load
	// shedding.
	sheds  atomic.Uint64
	faults *faults.Injector // nil outside soak builds
	obs    *observability
	wal    *wal.Log // nil when durability is off
}

// newServer builds a server around a running engine and starts its
// async job manager; the caller must close() it when done.
func newServer(e *engine.Engine, opts serverOptions) *server {
	s := &server{engine: e, version: opts.version, nodeID: opts.nodeID, started: time.Now(), faults: opts.faults, obs: opts.obs, wal: opts.wal}
	if s.obs == nil {
		s.obs = newObservability(nil, 0, 0)
	}
	if s.version == "" {
		s.version = "unknown"
	}
	runners := opts.runners
	if runners <= 0 {
		runners = e.Stats().Workers
	}
	run := opts.run
	if run == nil {
		run = s.runPayload
	}
	jo := jobs.Options{
		QueueCapacity: opts.queueCapacity,
		StoreCapacity: opts.storeCapacity,
		TTL:           opts.ttl,
		Runners:       runners,
		Run:           run,
		FailState:     jobFailState,
		NodeTag:       opts.nodeID,
	}
	if opts.wal != nil {
		jo.WAL = opts.wal
		jo.Recovered = opts.recovered
		jo.EncodePayload = api.EncodeRecord
		jo.DecodePayload = api.DecodeJobPayload
		jo.EncodeResult = api.EncodeRecord
		jo.DecodeResult = api.DecodeJobResult
	}
	s.jobs = jobs.New(jo)
	return s
}

// close releases the async job manager (the engine is owned by the
// caller).
func (s *server) close() { s.jobs.Close() }

// drain gracefully winds down the async job manager: admission stops
// immediately, queued and running jobs get until ctx expires to reach
// a terminal state, and whatever is left is aborted with a recorded
// reason — so a process that drains before exit never leaves a job
// observable as queued or running.
func (s *server) drain(ctx context.Context) { s.jobs.Shutdown(ctx) }

// jobFailState maps engine timeouts to the jobs subsystem's timeout
// state; everything else falls through to the default classification.
func jobFailState(err error) jobs.State {
	if errors.Is(err, engine.ErrTimeout) {
		return jobs.StateTimeout
	}
	return ""
}

// handler returns the service's routing table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/allocate", s.handleAllocate)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/jobs", s.handleJobsCollection)
	mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	if s.faults != nil {
		mux.HandleFunc("/debug/soak", s.handleDebugSoak)
	}
	return s.instrument(mux)
}

// toAlloc renders one single-pattern allocation for the wire; the
// text report is formatted only when the job asked for it.
func toAlloc(res *core.Result, cacheHit bool, elapsedMicros int64, report bool) api.Alloc {
	out := api.Alloc{
		Array:         res.Pattern.Array,
		Offsets:       res.Pattern.Offsets,
		CacheHit:      cacheHit,
		ElapsedMicros: elapsedMicros,
	}
	out.Cost = res.Cost
	out.VirtualRegisters = res.VirtualRegisters
	out.RegistersUsed = res.Assignment.Registers()
	out.Merged = res.Merged
	out.CoverExact = res.CoverExact
	out.Registers = make([][]int, len(res.Assignment.Paths))
	for i, p := range res.Assignment.Paths {
		out.Registers[i] = []int(p)
	}
	if report {
		out.Report = res.Report()
	}
	return out
}

// runPayload is the async executor: the jobs.Manager hands back the
// submitted wire job and this runs it on the engine exactly like the
// synchronous path, so polled results match /v1/batch answers. When
// the job record carries the submitting request's trace ID, the run
// gets its own span recorder under that ID, and slow or failed runs
// land in the same debug ring as slow HTTP requests (route "job").
func (s *server) runPayload(ctx context.Context, payload any) (any, error) {
	var tr *obs.Trace
	if tid := jobs.ContextTraceID(ctx); tid != "" {
		tr = obs.NewTrace(tid)
		ctx = obs.NewContext(ctx, tr)
	}
	resp, err := s.runJob(ctx, payload.(api.Job))
	if tr != nil {
		dur := tr.Elapsed()
		if err != nil || dur >= s.obs.threshold() {
			errText := ""
			if err != nil {
				errText = err.Error()
			}
			s.obs.ring.Add(tr.Snapshot("job", 0, errText, dur))
		}
		tr.Release()
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// runJob resolves one wire job and runs it on the engine: a pattern
// job is a single engine request, a loop job is a whole-loop request
// whose response carries one entry per array. The second return value
// is the failure (nil on success), so callers can map error kinds to
// HTTP status codes.
func (s *server) runJob(ctx context.Context, job api.Job) (api.JobResponse, error) {
	req, loop, err := resolveJob(&job)
	if err != nil {
		return api.JobResponse{Error: err.Error()}, err
	}
	if job.Pattern != nil {
		return patternResponse(s.engine.Run(ctx, req), job.Report)
	}
	return loopResponse(s.engine.RunLoop(ctx, loop), job.Report)
}

// resolveJob checks a wire job and lowers it to its engine request:
// req for a pattern job, or loop for a loop job, whose text is parsed
// here. A job that fails either step answers with err's text.
func resolveJob(job *api.Job) (req engine.Request, loop engine.LoopRequest, err error) {
	if err := job.Check(); err != nil {
		return req, loop, fmt.Errorf("job %w", err)
	}
	req = job.EngineRequest()
	if job.Pattern != nil {
		return req, loop, nil
	}
	prog, err := frontend.Parse(job.Loop, job.Bindings)
	if err != nil {
		return req, loop, err
	}
	return req, engine.LoopRequest{
		Loop:           prog.Loop,
		AGU:            req.AGU,
		InterIteration: req.InterIteration,
		Strategy:       req.Strategy,
	}, nil
}

// patternResponse renders a pattern job's engine result for the wire,
// returning its failure as well.
func patternResponse(res engine.JobResult, report bool) (api.JobResponse, error) {
	if res.Err != nil {
		return api.JobResponse{Error: res.Err.Error()}, res.Err
	}
	return api.JobResponse{Results: []api.Alloc{
		toAlloc(res.Result, res.CacheHit, res.Elapsed.Microseconds(), report),
	}}, nil
}

// loopResponse renders a loop job's engine result for the wire, one
// entry per array, returning its failure as well.
func loopResponse(res engine.LoopJobResult, report bool) (api.JobResponse, error) {
	if res.Err != nil {
		return api.JobResponse{Error: res.Err.Error()}, res.Err
	}
	resp := api.JobResponse{Results: make([]api.Alloc, 0, len(res.Result.Arrays))}
	for _, aa := range res.Result.Arrays {
		a := toAlloc(aa.Result, res.CacheHit, res.Elapsed.Microseconds(), report)
		a.GlobalRegisters = aa.GlobalRegisters
		resp.Results = append(resp.Results, a)
	}
	return resp, nil
}

// shedIfOverloaded applies the adaptive load-shedding policy to a
// synchronous solve path: while the engine's windowed-minimum queue
// wait stands above the shed target, reject with 503 + Retry-After
// instead of joining a queue that guarantees a slow answer. Async
// submissions are never shed — they are queue-depth-bounded already
// and their callers asked to wait.
func (s *server) shedIfOverloaded(w http.ResponseWriter) bool {
	if !s.engine.Overloaded() {
		return false
	}
	s.sheds.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(engine.ShedRetryAfterSeconds()))
	api.WriteError(w, http.StatusServiceUnavailable, "overloaded: queue wait above shed target; retry shortly")
	return true
}

// handleAllocate serves POST /v1/allocate: one job, one response.
// Allocator-level failures map to 422, per-job timeouts to 504.
func (s *server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.shedIfOverloaded(w) {
		return
	}
	var job api.Job
	if err := decodeJSON(r, &job); err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	enc := reserveEncode(r)
	resp, err := s.runJob(r.Context(), job)
	if err != nil {
		writeJSON(enc, w, statusForJobError(err), resp)
		return
	}
	writeJSON(enc, w, http.StatusOK, resp)
}

// handleBatch serves POST /v1/batch: every job is resolved on the
// handler's goroutine, and the resolved ones go to the engine as one
// RunJobs submission; results come back in job order. Per-job failures
// are reported inline; the batch response itself is always 200 once
// the body parses. The answer waits for every accepted job to settle,
// also when the client has gone: canceled solves are abandoned within
// microseconds, and jobs not yet accepted fail at once.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.shedIfOverloaded(w) {
		return
	}
	var batch api.BatchRequest
	if err := decodeJSON(r, &batch); err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(batch.Jobs) == 0 {
		api.WriteError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	enc := reserveEncode(r)
	start := time.Now()
	resp := api.BatchResponse{Results: make([]api.JobResponse, len(batch.Jobs))}
	reqs := make([]engine.Request, 0, len(batch.Jobs))
	var loops []engine.LoopRequest
	for i := range batch.Jobs {
		req, loop, err := resolveJob(&batch.Jobs[i])
		switch {
		case err != nil:
			resp.Results[i].Error = err.Error()
		case batch.Jobs[i].Pattern != nil:
			reqs = append(reqs, req)
		default:
			loops = append(loops, loop)
		}
	}
	res, loopRes := s.engine.RunJobs(r.Context(), reqs, loops)
	for i := range batch.Jobs {
		job := &batch.Jobs[i]
		switch {
		case resp.Results[i].Error != "": // failed to resolve
		case job.Pattern != nil:
			resp.Results[i], _ = patternResponse(res[0], job.Report)
			res = res[1:]
		default:
			resp.Results[i], _ = loopResponse(loopRes[0], job.Report)
			loopRes = loopRes[1:]
		}
	}
	resp.ElapsedMicros = time.Since(start).Microseconds()
	writeJSON(enc, w, http.StatusOK, resp)
}

// decodeJSON strictly decodes the request body into v inside an
// http.decode span.
func decodeJSON(r *http.Request, v any) error {
	sp := obs.FromContext(r.Context()).StartSpan("http.decode")
	defer sp.End()
	_, err := api.DecodeBody(r, v)
	return err
}

// reserveEncode takes the request's http.encode span slot before the
// handler's work. A cold 16-job batch records about nine engine spans
// per job, more than the trace's obs.MaxSpans slots; a slot taken up
// front keeps the handler's own phase from being the span dropped.
func reserveEncode(r *http.Request) obs.SpanHandle {
	return obs.FromContext(r.Context()).StartSpan("http.encode")
}

// writeJSON sends v inside enc, restarted so the span times the encode
// and the write alone.
func writeJSON(enc obs.SpanHandle, w http.ResponseWriter, status int, v any) {
	enc = enc.Restart()
	api.WriteJSON(w, status, v)
	enc.End()
}

// handleStats serves GET /v1/stats.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out := api.Stats{
		Stats:         s.engine.Stats(),
		AsyncJobs:     s.jobs.Metrics(),
		NodeID:        s.nodeID,
		Version:       s.version,
		UptimeSeconds: time.Since(s.started).Seconds(),
		HTTPRequests:  s.requests.Load(),
		Sheds:         s.sheds.Load(),
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		out.WAL = &ws
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleHealthz serves GET/HEAD /healthz for load-balancer probes.
// The first line is the literal "ok"; the second names the build so
// a probe log identifies what is running.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET or HEAD only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok\nrcaserve %s\n", s.version)
	if s.nodeID != "" {
		fmt.Fprintf(w, "node %s\n", s.nodeID)
	}
}

// statusForJobError distinguishes per-job solve timeouts (504) from
// validation and allocation failures (422) on the single-job
// endpoint.
func statusForJobError(err error) int {
	if errors.Is(err, engine.ErrTimeout) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}
