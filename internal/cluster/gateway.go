// The gateway HTTP surface: the full rcaserve /v1 API terminated at
// one address and routed over the fleet by ring position.
//
// Routing:
//
//	POST /v1/allocate      by the job's engine.RouteKey.
//	POST /v1/batch         split per job by route key into per-node
//	                       sub-batches, results stitched back in
//	                       request order.
//	POST /v1/jobs          the whole submission routes by a combined
//	                       digest of its jobs (atomic all-or-none
//	                       admission is preserved).
//	GET  /v1/jobs          fan-out to every up node, merged newest-
//	                       first by submission time.
//	GET/DELETE /v1/jobs/{id}  by the ID's node tag (jobs.NodeOf) —
//	                       ownership follows the admitting node, not
//	                       the ring, so rehashes never orphan a job.
//	GET  /v1/stats         fleet aggregate + per-node raw stats.
//	GET  /metrics          gateway families + node counters and
//	                       histograms summed across the fleet; node
//	                       gauges once per node, labeled node="<name>".
//	GET  /healthz          200 while any node is up.
//	GET  /v1/cluster       ring + member health introspection.
//
// Every route picks its node first — the first routable replica of
// the key, the job ID's owner, or every up node in a fan-out — and
// forwards once. Nothing is re-sent: the client owns retries.
//
// Status passthrough: a node's complete HTTP response — including a
// draining node's 503 and its Retry-After — is copied to the client
// verbatim. The gateway synthesizes its own 503 (Retry-After: 1) only
// when every replica for a key is down or the chosen node is
// unreachable.

package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/engine"
	"dspaddr/internal/jobs"
	"dspaddr/internal/obs"
)

// Options configures a Gateway.
type Options struct {
	// Fleet is the member set (required); breaker tuning lives on its
	// FleetOptions. The gateway takes ownership: Close stops its health
	// checker.
	Fleet *Fleet
	// Version is the build identity for /healthz and /v1/stats.
	Version string
	// Logger receives forward failures and node transitions; nil
	// discards.
	Logger *slog.Logger
}

// Gateway is the thin routing layer. Create with New, serve
// Handler(), release with Close.
type Gateway struct {
	fleet    *Fleet
	fwd      *forwarder
	version  string
	started  time.Time
	requests atomic.Uint64
	logger   *slog.Logger

	httpReqs    *obs.CounterVec
	httpHist    *obs.HistogramVec
	fwdReqs     *obs.CounterVec
	fwdHist     *obs.HistogramVec
	nodeUp      *obs.GaugeVec
	transitions *obs.CounterVec

	breakerState       *obs.GaugeVec
	breakerTransitions *obs.CounterVec
}

// New wires the gateway and starts the fleet's health checker.
func New(opts Options) (*Gateway, error) {
	if opts.Fleet == nil {
		return nil, fmt.Errorf("cluster: Options.Fleet is required")
	}
	if opts.Version == "" {
		opts.Version = "unknown"
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	g := &Gateway{
		fleet:   opts.Fleet,
		version: opts.Version,
		started: time.Now(),
		logger:  logger,
		httpReqs: obs.NewCounterVec("rcagate_http_route_requests_total",
			"Gateway HTTP requests served, by route and status.", []string{"route", "status"}),
		httpHist: obs.NewHistogramVec("rcagate_http_request_duration_seconds",
			"Gateway HTTP handler latency, by route and status.", []string{"route", "status"}, nil),
		fwdReqs: obs.NewCounterVec("rcagate_forward_requests_total",
			"Requests forwarded to nodes, by node and status (status 0 = transport failure).", []string{"node", "status"}),
		fwdHist: obs.NewHistogramVec("rcagate_forward_duration_seconds",
			"Forwarded exchange latency, by node.", []string{"node"}, nil),
		nodeUp: obs.NewGaugeVec("rcagate_node_up",
			"Whether the node is currently marked up (1) or down (0).", []string{"node"}),
		transitions: obs.NewCounterVec("rcagate_node_transitions_total",
			"Node health transitions, by node and direction.", []string{"node", "to"}),
		breakerState: obs.NewGaugeVec("rcagate_breaker_state",
			"Per-node circuit breaker position: 0 closed, 1 open, 2 half-open.", []string{"node"}),
		breakerTransitions: obs.NewCounterVec("rcagate_breaker_transitions_total",
			"Circuit breaker state changes, by node and destination state.", []string{"node", "to"}),
	}
	// The fleet calls back on every transition; seed the gauge so
	// every member exports a sample from the first scrape.
	g.fleet.opts.OnTransition = func(m *Member, up bool) {
		v := int64(0)
		dir := "down"
		if up {
			v, dir = 1, "up"
		}
		g.nodeUp.Set(v, m.Name)
		g.transitions.Add(1, m.Name, dir)
		g.logger.Warn("node transition", "node", m.Name, "up", up)
	}
	g.fleet.opts.OnBreakerTransition = func(m *Member, to BreakerState) {
		g.breakerState.Set(int64(to), m.Name)
		g.breakerTransitions.Add(1, m.Name, to.String())
		g.logger.Warn("breaker transition", "node", m.Name, "to", to.String())
	}
	for _, m := range g.fleet.Members() {
		g.nodeUp.Set(1, m.Name)
		g.breakerState.Set(int64(BreakerClosed), m.Name)
	}
	g.fwd = newForwarder(g.fleet,
		func(m *Member, status int, dur time.Duration) {
			g.fwdReqs.Add(1, m.Name, strconv.Itoa(status))
			g.fwdHist.Observe(dur, m.Name)
		})
	g.fleet.Start()
	return g, nil
}

// Close stops the health checker and releases pooled connections.
func (g *Gateway) Close() {
	g.fleet.Stop()
	g.fwd.close()
}

// Handler returns the gateway routing table wrapped in the
// instrumentation middleware.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/allocate", g.handleAllocate)
	mux.HandleFunc("/v1/batch", g.handleBatch)
	mux.HandleFunc("/v1/jobs", g.handleJobsCollection)
	mux.HandleFunc("/v1/jobs/", g.handleJobByID)
	mux.HandleFunc("/v1/stats", g.handleStats)
	mux.HandleFunc("/v1/cluster", g.handleCluster)
	mux.HandleFunc("/metrics", g.handleMetrics)
	mux.HandleFunc("/healthz", g.handleHealthz)
	return g.instrument(mux)
}

// instrument adopts or generates the request's trace ID, normalizes
// it onto the INCOMING headers (so every forwarded hop carries the
// gateway's ID — the node honors a well-formed X-Request-Id instead
// of regenerating), echoes it to the client and counts the request.
func (g *Gateway) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if !api.ValidRequestID(id) {
			id = fmt.Sprintf("g-%016x", rand.Uint64())
		}
		r.Header.Set("X-Request-Id", id)
		w.Header().Set("X-Request-Id", id)
		sw := &api.StatusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		dur := time.Since(start)
		status := sw.Status()
		route := api.RouteOf(r.URL.Path)
		statusText := strconv.Itoa(status)
		g.requests.Add(1)
		g.httpReqs.Add(1, route, statusText)
		g.httpHist.Observe(dur, route, statusText)
		if status >= http.StatusInternalServerError {
			g.logger.Warn("gateway request failed",
				"traceId", id, "route", route, "status", status, "durMs", dur.Milliseconds())
		}
	})
}

// ---- routing keys ---------------------------------------------------

// routeKeyOf places one job on the ring. Pattern jobs use the
// engine's canonical routing digest, so translated twins land on (and
// warm) one node's cache. Loop jobs are digested textually — source,
// bindings, parameters — which is stricter than the node-side
// equivalence (two differently-written loops with equal access
// patterns route apart) but never splits a repeated campaign.
func routeKeyOf(j *api.Job) uint64 {
	if j.Pattern != nil {
		return engine.RouteKey(j.EngineRequest())
	}
	h := hashString(j.Loop)
	if len(j.Bindings) > 0 {
		names := make([]string, 0, len(j.Bindings))
		for k := range j.Bindings {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			h = mix64(h ^ hashString(k) ^ mix64(uint64(int64(j.Bindings[k]))))
		}
	}
	h = mix64(h ^ uint64(int64(j.AGU.Registers))<<32 ^ uint64(int64(j.AGU.ModifyRange)))
	if j.Wrap {
		h = mix64(h ^ 0x77726170) // "wrap"
	}
	strat := j.Strategy
	if strat == "greedy" {
		strat = "" // same solve, same route (mirrors the cache key)
	}
	if strat != "" {
		h = mix64(h ^ hashString(strat))
	}
	return h
}

// combinedKey folds a whole submission into one key so atomic
// admission is preserved: every job of one POST /v1/jobs lands on one
// node. Single-job submissions share their key with the identical
// /v1/allocate request, co-locating a campaign's sync and async
// halves.
func combinedKey(entries []api.Job) uint64 {
	if len(entries) == 1 {
		return routeKeyOf(&entries[0])
	}
	h := uint64(0x636c7573746572) // "cluster"
	for i := range entries {
		h = mix64(h ^ routeKeyOf(&entries[i]))
	}
	return h
}

// ---- response passthrough -------------------------------------------

// copyResponse writes a node's buffered response to the client
// verbatim, in one write with its Content-Length: status, body,
// Content-Type — and Retry-After, so node
// back-pressure (429 queue-full, 503 draining) reaches the client
// with the NODE's timing, never a gateway-synthesized one.
func copyResponse(w http.ResponseWriter, resp *nodeResponse) {
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	w.Write(resp.body) //nolint:errcheck // client gone — nothing left to do
}

// writeUnavailable is the gateway's own 503: every replica for the
// key was down, or the chosen node was unreachable. Retry-After is
// short — mark-down plus rehash happens within the health-check
// window.
func (g *Gateway) writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	api.WriteError(w, http.StatusServiceUnavailable, "no node available: %v", err)
}

// ---- /v1/allocate ----------------------------------------------------

func (g *Gateway) handleAllocate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var job api.Job
	body, err := api.DecodeBody(r, &job)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	m := g.fleet.FirstRoutable(routeKeyOf(&job))
	if m == nil {
		g.writeUnavailable(w, ErrAllReplicasDown)
		return
	}
	resp, err := g.fwd.do(r.Context(), m, http.MethodPost, "/v1/allocate", body, r.Header)
	if err != nil {
		if r.Context().Err() == nil { // a vanished client gets nothing
			g.writeUnavailable(w, err)
		}
		return
	}
	copyResponse(w, resp)
}

// ---- /v1/batch -------------------------------------------------------

func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var batch api.BatchRequest
	body, err := api.DecodeBody(r, &batch)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(batch.Jobs) == 0 {
		api.WriteError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	// Route every job; group request indices by destination node.
	type group struct {
		member  *Member
		indices []int
	}
	groups := map[string]*group{}
	order := []string{}
	for i := range batch.Jobs {
		m := g.fleet.FirstRoutable(routeKeyOf(&batch.Jobs[i]))
		if m == nil {
			g.writeUnavailable(w, ErrAllReplicasDown)
			return
		}
		gr := groups[m.Name]
		if gr == nil {
			gr = &group{member: m}
			groups[m.Name] = gr
			order = append(order, m.Name)
		}
		gr.indices = append(gr.indices, i)
	}

	// Single destination: the whole batch forwards unchanged, and the
	// node's answer (including its elapsed time) is the client's.
	if len(groups) == 1 {
		resp, err := g.fwd.do(r.Context(), groups[order[0]].member, http.MethodPost, "/v1/batch", body, r.Header)
		if err != nil {
			g.writeUnavailable(w, err)
			return
		}
		copyResponse(w, resp)
		return
	}

	// Fan the sub-batches out concurrently, stitch results back into
	// request order. Each sub-batch is re-encoded from the decoded
	// jobs, which the node decodes to the same values. A node that
	// fails mid-flight yields inline per-job errors — batch semantics
	// stay "200 once the body parses", exactly like node-local per-job
	// failures.
	start := time.Now()
	results := make([]json.RawMessage, len(batch.Jobs))
	var wg sync.WaitGroup
	for _, name := range order {
		gr := groups[name]
		wg.Add(1)
		go func(gr *group) {
			defer wg.Done()
			sub := api.BatchRequest{Jobs: make([]api.Job, len(gr.indices))}
			for i, idx := range gr.indices {
				sub.Jobs[i] = batch.Jobs[idx]
			}
			payload, err := json.Marshal(sub)
			if err != nil {
				g.fillBatchErrors(results, gr.indices, fmt.Sprintf("encode sub-batch: %v", err))
				return
			}
			resp, err := g.fwd.do(r.Context(), gr.member, http.MethodPost, "/v1/batch", payload, r.Header)
			if err != nil {
				g.fillBatchErrors(results, gr.indices, fmt.Sprintf("node %s unreachable: %v", gr.member.Name, err))
				return
			}
			if resp.status != http.StatusOK {
				g.fillBatchErrors(results, gr.indices, fmt.Sprintf("node %s answered %d", gr.member.Name, resp.status))
				return
			}
			var out struct {
				Results []json.RawMessage `json:"results"`
			}
			if err := json.Unmarshal(resp.body, &out); err != nil || len(out.Results) != len(gr.indices) {
				g.fillBatchErrors(results, gr.indices, fmt.Sprintf("node %s answered malformed batch response", gr.member.Name))
				return
			}
			for i, idx := range gr.indices {
				results[idx] = out.Results[i]
			}
		}(gr)
	}
	wg.Wait()
	api.WriteJSON(w, http.StatusOK, struct {
		Results       []json.RawMessage `json:"results"`
		ElapsedMicros int64             `json:"elapsedMicros"`
	}{results, time.Since(start).Microseconds()})
}

// fillBatchErrors stamps an inline error result on each index.
func (g *Gateway) fillBatchErrors(results []json.RawMessage, indices []int, msg string) {
	raw, _ := json.Marshal(api.JobResponse{Error: msg}) //nolint:errcheck // marshal of a string cannot fail
	for _, idx := range indices {
		results[idx] = raw
	}
}

// ---- /v1/jobs --------------------------------------------------------

func (g *Gateway) handleJobsCollection(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		g.handleJobSubmit(w, r)
	case http.MethodGet:
		g.handleJobList(w, r)
	default:
		api.WriteError(w, http.StatusMethodNotAllowed, "POST or GET only")
	}
}

func (g *Gateway) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var sub api.Submit
	body, err := api.DecodeBody(r, &sub)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	entries, err := sub.Entries()
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m := g.fleet.FirstRoutable(combinedKey(entries))
	if m == nil {
		g.writeUnavailable(w, ErrAllReplicasDown)
		return
	}
	// Once bytes left for the node the batch may be admitted, so a
	// transport failure is surfaced as a 503 for the client to decide.
	resp, err := g.fwd.do(r.Context(), m, http.MethodPost, "/v1/jobs", body, r.Header)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable,
			"node %s unreachable mid-submit (admission unknown): %v", m.Name, err)
		return
	}
	copyResponse(w, resp)
}

// handleJobList fans GET /v1/jobs out to every up node and merges the
// pages newest-first by submission time (each node lists its own jobs
// newest-first; the gateway merge keeps that global order).
func (g *Gateway) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	state := q.Get("state")
	offset, err := api.QueryInt(q.Get("offset"), 0)
	if err != nil || offset < 0 {
		api.WriteError(w, http.StatusBadRequest, "bad offset")
		return
	}
	limit, err := api.QueryInt(q.Get("limit"), api.DefaultListLimit)
	if err != nil || limit <= 0 {
		api.WriteError(w, http.StatusBadRequest, "bad limit")
		return
	}
	if limit > api.MaxListLimit {
		limit = api.MaxListLimit
	}
	// Each node must return its full window up to offset+limit so the
	// merged slice is exact (a job at global offset 40 may be any
	// node's 0th).
	window := offset + limit
	if window > api.MaxListLimit {
		window = api.MaxListLimit
	}
	fanout := url.Values{"offset": {"0"}, "limit": {strconv.Itoa(window)}}
	if state != "" {
		fanout.Set("state", state)
	}
	path := "/v1/jobs?" + fanout.Encode()

	type nodePage struct {
		jobs  []json.RawMessage
		total int
		err   error
	}
	up := g.upMembers()
	if len(up) == 0 {
		g.writeUnavailable(w, ErrAllReplicasDown)
		return
	}
	pages := make([]nodePage, len(up))
	var wg sync.WaitGroup
	for i, m := range up {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			resp, err := g.fwd.do(r.Context(), m, http.MethodGet, path, nil, r.Header)
			if err != nil {
				pages[i].err = err
				return
			}
			if resp.status != http.StatusOK {
				// A node that rejects the query (bad state value) speaks
				// for the fleet: the parameters are uniform.
				pages[i].err = fmt.Errorf("node %s answered %d", m.Name, resp.status)
				if resp.status == http.StatusBadRequest {
					pages[i].err = errBadListQuery
				}
				return
			}
			var out struct {
				Jobs  []json.RawMessage `json:"jobs"`
				Total int               `json:"total"`
			}
			if err := json.Unmarshal(resp.body, &out); err != nil {
				pages[i].err = err
				return
			}
			pages[i].jobs, pages[i].total = out.Jobs, out.Total
		}(i, m)
	}
	wg.Wait()

	type entry struct {
		raw         json.RawMessage
		submittedAt time.Time
		id          string
	}
	var merged []entry
	total := 0
	answered := 0
	for i := range pages {
		if pages[i].err == errBadListQuery {
			api.WriteError(w, http.StatusBadRequest, "unknown state %q", state)
			return
		}
		if pages[i].err != nil {
			continue
		}
		answered++
		total += pages[i].total
		for _, raw := range pages[i].jobs {
			var probe struct {
				ID          string    `json:"id"`
				SubmittedAt time.Time `json:"submittedAt"`
			}
			if err := json.Unmarshal(raw, &probe); err != nil {
				continue
			}
			merged = append(merged, entry{raw: raw, submittedAt: probe.SubmittedAt, id: probe.ID})
		}
	}
	if answered == 0 {
		g.writeUnavailable(w, ErrAllReplicasDown)
		return
	}
	sort.Slice(merged, func(a, b int) bool {
		if !merged[a].submittedAt.Equal(merged[b].submittedAt) {
			return merged[a].submittedAt.After(merged[b].submittedAt)
		}
		return merged[a].id > merged[b].id
	})
	if offset > len(merged) {
		merged = nil
	} else {
		merged = merged[offset:]
	}
	if len(merged) > limit {
		merged = merged[:limit]
	}
	out := make([]json.RawMessage, len(merged))
	for i := range merged {
		out[i] = merged[i].raw
	}
	api.WriteJSON(w, http.StatusOK, struct {
		Jobs   []json.RawMessage `json:"jobs"`
		Total  int               `json:"total"`
		Offset int               `json:"offset"`
		Limit  int               `json:"limit"`
	}{out, total, offset, limit})
}

// errBadListQuery marks a node-side 400 on the list fan-out.
var errBadListQuery = errors.New("cluster: bad list query")

// handleJobByID routes GET/DELETE /v1/jobs/{id} by the ID's node tag:
// the job lives exactly where it was admitted, whatever the ring says
// now — so a rehash after a mark-down never orphans existing jobs.
func (g *Gateway) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodDelete {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET or DELETE only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		api.WriteError(w, http.StatusNotFound, "no such resource")
		return
	}
	tag := jobs.NodeOf(id)
	if tag == "" {
		api.WriteError(w, http.StatusNotFound, "job %s not found (no node tag)", id)
		return
	}
	m := g.fleet.Member(tag)
	if m == nil {
		api.WriteError(w, http.StatusNotFound, "job %s not found (unknown node %q)", id, tag)
		return
	}
	if !m.Up() {
		// The job's state lives only on its owner; it may return (WAL
		// replay) — tell the client to retry rather than lying 404.
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, "job %s: owning node %s is down", id, tag)
		return
	}
	resp, err := g.fwd.do(r.Context(), m, r.Method, "/v1/jobs/"+url.PathEscape(id), nil, r.Header)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusServiceUnavailable, "job %s: owning node %s unreachable: %v", id, tag, err)
		return
	}
	copyResponse(w, resp)
}

// ---- /v1/stats -------------------------------------------------------

// fleetStatsJSON is the summed cross-node view. Like each node's, its
// engine counters satisfy jobs = cacheHits + cacheMisses + errors +
// timeouts + canceled.
type fleetStatsJSON struct {
	Nodes          int     `json:"nodes"`
	UpNodes        int     `json:"upNodes"`
	Jobs           uint64  `json:"jobs"`
	CacheHits      uint64  `json:"cacheHits"`
	CacheMisses    uint64  `json:"cacheMisses"`
	Errors         uint64  `json:"errors"`
	Timeouts       uint64  `json:"timeouts"`
	Canceled       uint64  `json:"canceled"`
	HitRate        float64 `json:"hitRate"`
	AsyncSubmitted uint64  `json:"asyncSubmitted"`
	AsyncDone      uint64  `json:"asyncDone"`
	AsyncFailed    uint64  `json:"asyncFailed"`
	AsyncTimedOut  uint64  `json:"asyncTimedOut"`
	AsyncCanceled  uint64  `json:"asyncCanceled"`
	AsyncRecovered uint64  `json:"asyncRecovered"`
	AsyncQueued    int     `json:"asyncQueued"`
	AsyncRunning   int     `json:"asyncRunning"`
}

// gatewayStatsJSON is the gateway's own corner of /v1/stats.
type gatewayStatsJSON struct {
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	HTTPRequests  uint64  `json:"httpRequests"`
	// Breakers maps node name to circuit position ("closed", "open",
	// "half-open").
	Breakers map[string]string `json:"breakers"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	up := g.upMembers()
	perNode := make([]json.RawMessage, len(up))
	var wg sync.WaitGroup
	for i, m := range up {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			resp, err := g.fwd.do(r.Context(), m, http.MethodGet, "/v1/stats", nil, r.Header)
			if err == nil && resp.status == http.StatusOK {
				perNode[i] = resp.body
			}
		}(i, m)
	}
	wg.Wait()

	fleet := fleetStatsJSON{Nodes: len(g.fleet.Members()), UpNodes: g.fleet.UpCount()}
	nodes := make(map[string]json.RawMessage, len(up))
	for i, m := range up {
		if perNode[i] == nil {
			continue
		}
		nodes[m.Name] = perNode[i]
		var s api.Stats
		if err := json.Unmarshal(perNode[i], &s); err != nil {
			continue
		}
		fleet.Jobs += s.Jobs
		fleet.CacheHits += s.CacheHits
		fleet.CacheMisses += s.CacheMisses
		fleet.Errors += s.Errors
		fleet.Timeouts += s.Timeouts
		fleet.Canceled += s.Canceled
		fleet.AsyncSubmitted += s.AsyncJobs.Submitted
		fleet.AsyncDone += s.AsyncJobs.Done
		fleet.AsyncFailed += s.AsyncJobs.Failed
		fleet.AsyncTimedOut += s.AsyncJobs.TimedOut
		fleet.AsyncCanceled += s.AsyncJobs.Canceled
		fleet.AsyncRecovered += s.AsyncJobs.Recovered
		fleet.AsyncQueued += s.AsyncJobs.QueueDepth
		fleet.AsyncRunning += s.AsyncJobs.Running
	}
	if looked := fleet.CacheHits + fleet.CacheMisses; looked > 0 {
		fleet.HitRate = float64(fleet.CacheHits) / float64(looked)
	}
	breakers := make(map[string]string, len(g.fleet.Members()))
	for _, m := range g.fleet.Members() {
		breakers[m.Name] = m.BreakerState().String()
	}
	api.WriteJSON(w, http.StatusOK, struct {
		Fleet   fleetStatsJSON             `json:"fleet"`
		Nodes   map[string]json.RawMessage `json:"nodes"`
		Gateway gatewayStatsJSON           `json:"gateway"`
	}{
		Fleet: fleet,
		Nodes: nodes,
		Gateway: gatewayStatsJSON{
			Version:       g.version,
			UptimeSeconds: time.Since(g.started).Seconds(),
			HTTPRequests:  g.requests.Load(),
			Breakers:      breakers,
		},
	})
}

// ---- /metrics --------------------------------------------------------

// handleMetrics renders the gateway's own families followed by the
// node families aggregated across the fleet (see writeAggregated).
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	g.httpReqs.Expose(w)
	g.httpHist.Expose(w)
	g.fwdReqs.Expose(w)
	g.fwdHist.Expose(w)
	g.nodeUp.Expose(w)
	g.transitions.Expose(w)
	g.breakerState.Expose(w)
	g.breakerTransitions.Expose(w)
	fmt.Fprintf(w, "# HELP rcagate_nodes Configured fleet size.\n# TYPE rcagate_nodes gauge\nrcagate_nodes %d\n", len(g.fleet.Members()))
	fmt.Fprintf(w, "# HELP rcagate_nodes_up Nodes currently marked up.\n# TYPE rcagate_nodes_up gauge\nrcagate_nodes_up %d\n", g.fleet.UpCount())
	fmt.Fprintf(w, "# HELP rcagate_uptime_seconds Gateway process uptime.\n# TYPE rcagate_uptime_seconds gauge\nrcagate_uptime_seconds %g\n", time.Since(g.started).Seconds())

	up := g.upMembers()
	scrapes := make([]map[string]*obs.Family, len(up))
	var wg sync.WaitGroup
	for i, m := range up {
		wg.Add(1)
		go func(i int, m *Member) {
			defer wg.Done()
			resp, err := g.fwd.do(r.Context(), m, http.MethodGet, "/metrics", nil, r.Header)
			if err != nil || resp.status != http.StatusOK {
				return
			}
			fams, err := obs.ParseExposition(strings.NewReader(string(resp.body)))
			if err != nil {
				g.logger.Warn("unparseable node exposition", "node", m.Name, "err", err)
				return
			}
			scrapes[i] = fams
		}(i, m)
	}
	wg.Wait()
	nodes := make([]string, len(up))
	for i, m := range up {
		nodes[i] = m.Name
	}
	writeAggregated(w, nodes, scrapes)
}

// writeAggregated merges the families scraped from nodes[i] and
// renders them. Counter samples and histogram _bucket, _sum and _count
// samples with identical name and labels add up across the fleet.
// Gauge and untyped samples do not: a summed uptime, build_info or
// quantile means nothing, so each node's sample is re-emitted once
// with a node="<name>" label added.
func writeAggregated(w io.Writer, nodes []string, scrapes []map[string]*obs.Family) {
	type key struct {
		sample string
		labels string
	}
	merged := map[string]*obs.Family{}
	order := map[string][]key{}
	values := map[string]map[key]float64{}
	for i, fams := range scrapes {
		for name, f := range fams {
			mf := merged[name]
			if mf == nil {
				mf = &obs.Family{Name: name, Help: f.Help, Type: f.Type}
				merged[name] = mf
				values[name] = map[key]float64{}
			}
			additive := f.Type == "counter" || f.Type == "histogram"
			for _, s := range f.Samples {
				labels := s.Labels
				if !additive {
					labels = make(map[string]string, len(s.Labels)+1)
					for k, v := range s.Labels {
						labels[k] = v
					}
					labels["node"] = nodes[i]
				}
				k := key{sample: s.Name, labels: renderSortedLabels(labels)}
				if _, seen := values[name][k]; !seen {
					order[name] = append(order[name], k)
				}
				values[name][k] += s.Value
			}
		}
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := merged[name]
		fmt.Fprintf(w, "# HELP %s %s\n", name, f.Help)
		if f.Type != "" {
			fmt.Fprintf(w, "# TYPE %s %s\n", name, f.Type)
		}
		for _, k := range order[name] {
			v := values[name][k]
			if k.labels == "" {
				fmt.Fprintf(w, "%s %s\n", k.sample, strconv.FormatFloat(v, 'g', -1, 64))
			} else {
				fmt.Fprintf(w, "%s{%s} %s\n", k.sample, k.labels, strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
	}
}

// renderSortedLabels renders a label map deterministically.
func renderSortedLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	names := make([]string, 0, len(labels))
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}

// ---- /healthz and /v1/cluster ---------------------------------------

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET or HEAD only")
		return
	}
	up, total := g.fleet.UpCount(), len(g.fleet.Members())
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if up == 0 {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded\nrcagate %s\nnodes 0/%d\n", g.version, total)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok\nrcagate %s\nnodes %d/%d\n", g.version, up, total)
}

// clusterJSON is the GET /v1/cluster introspection body.
type clusterJSON struct {
	Nodes []clusterNodeJSON `json:"nodes"`
	// RingPoints is the total vnode count across members.
	RingPoints int `json:"ringPoints"`
}

type clusterNodeJSON struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Up    bool   `json:"up"`
	Fails int    `json:"consecutiveFailures"`
	// DownSince is when the node was marked down; absent while up.
	DownSince *time.Time `json:"downSince,omitempty"`
	// Breaker is the node's circuit position, with its rolling outcome
	// window occupancy.
	Breaker        string `json:"breaker"`
	BreakerSamples int    `json:"breakerSamples"`
	BreakerFailed  int    `json:"breakerFailed"`
}

func (g *Gateway) handleCluster(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	out := clusterJSON{RingPoints: g.fleet.Ring().Size()}
	for _, m := range g.fleet.Members() {
		n := clusterNodeJSON{Name: m.Name, URL: m.URL, Up: m.Up(), Fails: m.Fails()}
		if ds := m.DownSince(); !ds.IsZero() {
			n.DownSince = &ds
		}
		n.Breaker = m.BreakerState().String()
		n.BreakerSamples, n.BreakerFailed = m.BreakerWindow()
		out.Nodes = append(out.Nodes, n)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// ---- small helpers ---------------------------------------------------

func (g *Gateway) upMembers() []*Member {
	out := make([]*Member, 0, len(g.fleet.Members()))
	for _, m := range g.fleet.Members() {
		if m.Up() {
			out = append(out, m)
		}
	}
	return out
}
