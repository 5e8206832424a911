// The serving layer's observability bundle: per-request trace IDs and
// span recording (internal/obs), native latency histograms, the
// slow/error trace ring behind GET /debug/requests and the structured
// request log. One middleware wraps the whole routing table, so
// request counting, latency observation and trace capture happen in
// exactly one place — per-handler counters (which used to tick before
// method validation) are gone.

package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/obs"
)

// defaultTraceMin is the slow-trace capture threshold when the
// -trace-min flag (or test option) leaves it zero: requests and async
// jobs at least this slow are retained in the debug ring. Error
// responses are retained regardless of duration.
const defaultTraceMin = 10 * time.Millisecond

// observability bundles the obs surfaces one server instance owns.
// Construct it before the WAL so the log's histograms can be handed
// to wal.Options.
type observability struct {
	logger   *slog.Logger
	ring     *obs.TraceRing
	traceMin time.Duration // <0 captures everything, 0 = defaultTraceMin

	httpReqs *obs.CounterVec
	httpHist *obs.HistogramVec

	// WAL durability timings; populated only when -wal-dir is set but
	// constructed unconditionally so the bundle exists before the log.
	walAppendHist *obs.Histogram
	walFsyncHist  *obs.Histogram
	walReplayHist *obs.Histogram
}

// newObservability builds the bundle. A nil logger discards (tests);
// ringSize <= 0 selects obs.DefaultRingSize.
func newObservability(logger *slog.Logger, traceMin time.Duration, ringSize int) *observability {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &observability{
		logger:   logger,
		ring:     obs.NewTraceRing(ringSize),
		traceMin: traceMin,
		httpReqs: obs.NewCounterVec("rcaserve_http_route_requests_total",
			"HTTP requests served, by route and status.", []string{"route", "status"}),
		httpHist: obs.NewHistogramVec("rcaserve_http_request_duration_seconds",
			"HTTP handler latency, by route and status.", []string{"route", "status"}, nil),
		walAppendHist: obs.NewHistogram("rcaserve_wal_append_duration_seconds",
			"WAL record append latency (build + write + inline fsync under the always policy).", nil),
		walFsyncHist: obs.NewHistogram("rcaserve_wal_fsync_duration_seconds",
			"WAL segment fsync latency.", nil),
		walReplayHist: obs.NewHistogram("rcaserve_wal_replay_duration_seconds",
			"WAL boot replay duration.", nil),
	}
}

// threshold resolves the effective slow-trace capture bound.
func (ob *observability) threshold() time.Duration {
	switch {
	case ob.traceMin < 0:
		return 0
	case ob.traceMin == 0:
		return defaultTraceMin
	default:
		return ob.traceMin
	}
}

// instrument is the single request wrapper: it assigns (or accepts)
// the trace ID, threads a span recorder through the request context,
// applies armed response faults, counts the request by route+status
// after the handler ran, observes the latency histogram, retains slow
// and failed traces in the debug ring and logs failures with their
// trace ID.
func (s *server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID(r)
		tr := obs.NewTrace(id)
		w.Header().Set("X-Request-Id", id)
		sw := &api.StatusWriter{ResponseWriter: w}
		start := time.Now()
		ctx := obs.NewContext(r.Context(), tr)
		if s.faults != nil {
			if err := s.faults.BeforeResponse(ctx); err != nil {
				// The peer left during an injected delay: drop the
				// connection without writing a response it stopped
				// waiting for.
				panic(http.ErrAbortHandler)
			}
		}
		next.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(start)

		status := sw.Status()
		route := api.RouteOf(r.URL.Path)
		statusText := strconv.Itoa(status)
		s.requests.Add(1)
		s.obs.httpReqs.Add(1, route, statusText)
		s.obs.httpHist.Observe(dur, route, statusText)

		// Every engine submission returns only after its jobs settled,
		// so no worker records into tr once the handler is back: a
		// canceled request keeps its spans like any other, and its
		// error text says the client went away.
		if captureTrace(status, dur, s.obs.threshold()) {
			errText := ""
			if err := ctx.Err(); err != nil {
				errText = err.Error()
			}
			s.obs.ring.Add(tr.Snapshot(route, status, errText, dur))
		}
		if status >= http.StatusInternalServerError {
			s.obs.logger.Warn("request failed",
				"traceId", id, "route", route, "status", status, "durMs", dur.Milliseconds())
		}
		tr.Release()
	})
}

// captureTrace decides retention: server errors always, solve-level
// failures (422/504) always, anything at or above the slow threshold.
func captureTrace(status int, dur, min time.Duration) bool {
	return status >= http.StatusInternalServerError ||
		status == http.StatusUnprocessableEntity ||
		status == http.StatusGatewayTimeout ||
		dur >= min
}

// requestID accepts a well-formed client-supplied X-Request-Id or
// generates one.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); api.ValidRequestID(id) {
		return id
	}
	return fmt.Sprintf("r-%016x", rand.Uint64())
}

// debugRequestsJSON is the GET /debug/requests body.
type debugRequestsJSON struct {
	// Count is the number of traces returned after filtering.
	Count int `json:"count"`
	// Traces are the retained slow/error traces, newest first, each
	// with its phase breakdown.
	Traces []*obs.TraceSnapshot `json:"traces"`
}

// handleDebugRequests serves GET /debug/requests?min_ms=&limit=: the
// retained slow/error traces, newest first.
func (s *server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	minMS := 0.0
	if raw := q.Get("min_ms"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			api.WriteError(w, http.StatusBadRequest, "bad min_ms")
			return
		}
		minMS = v
	}
	limit, err := api.QueryInt(q.Get("limit"), 0)
	if err != nil || limit < 0 {
		api.WriteError(w, http.StatusBadRequest, "bad limit")
		return
	}
	all := s.obs.ring.Snapshots()
	out := make([]*obs.TraceSnapshot, 0, len(all))
	for _, snap := range all {
		if float64(snap.DurationMicros) >= minMS*1000 {
			out = append(out, snap)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	api.WriteJSON(w, http.StatusOK, debugRequestsJSON{Count: len(out), Traces: out})
}
