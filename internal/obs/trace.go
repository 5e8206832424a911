// Package obs is the service's zero-dependency observability layer:
// per-request span tracing, fixed-bucket Prometheus histograms and a
// lock-free ring of retained slow/error traces. Everything here is
// stdlib-only by design — the serving layer hand-renders its /metrics
// exposition and this package keeps it that way (see the companion
// rationale in docs/ARCHITECTURE.md).
//
// The tracing half is built for a hot path that must not notice it.
// A Trace owns a fixed-capacity span array recycled through a
// sync.Pool, so recording a span never allocates; every recording
// entry point is nil-safe, so instrumented code holds a possibly-nil
// *Trace (from FromContext) and records unconditionally — with no
// trace in the context the whole instrumentation collapses to a few
// nil checks and zero allocations.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// MaxSpans caps the per-trace span storage. A trace that records more
// drops the excess and counts it (TraceSnapshot.DroppedSpans), so a
// pathological 1000-job batch degrades to a truncated trace instead
// of an allocation storm.
const MaxSpans = 128

// maxAttrs caps the numeric annotations of one span.
const maxAttrs = 4

// Attr is one numeric span annotation (node counts, shard indices,
// merge rounds). Keys must be static strings so recording stays
// allocation-free.
type Attr struct {
	Key   string
	Value int64
}

// Span is one recorded phase of a trace: a name, an offset from the
// trace start, a duration, an optional outcome label and up to
// maxAttrs numeric annotations.
type Span struct {
	Name    string
	Start   time.Duration // offset from the trace start
	Dur     time.Duration
	Outcome string
	attrs   [maxAttrs]Attr
	nattrs  int32
}

// Trace is a per-request (or per-async-job) span recorder with
// fixed-capacity, pool-recycled storage. Span slots are reserved with
// one atomic increment (concurrent recording from batch worker
// goroutines is expected); each reserved slot is then written
// lock-free by its holder. Snapshot and Release must only be called
// once every recording goroutine has finished. Every engine
// submission returns only after its jobs have settled, canceled ones
// included, so a handler or async runner that has returned has no
// worker left recording into its trace.
type Trace struct {
	id    string
	start time.Time

	// n is the number of reservation attempts; it can race past
	// MaxSpans, so readers clamp, and the overflow n − MaxSpans is the
	// dropped-span count.
	n     atomic.Int32
	spans [MaxSpans]Span
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// NewTrace draws a trace from the pool and starts its clock.
func NewTrace(id string) *Trace {
	t := tracePool.Get().(*Trace)
	t.id = id
	t.start = time.Now()
	t.n.Store(0)
	return t
}

// Release returns the trace to the pool. Like Snapshot, it must come
// after every recording goroutine has finished.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	tracePool.Put(t)
}

// ID returns the trace identifier ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Elapsed is the time since the trace started.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// SpanHandle addresses one reserved span slot; the zero handle (and
// every handle from a nil or full trace) is a no-op.
type SpanHandle struct {
	tr  *Trace
	t0  time.Time
	idx int32
}

// StartSpan reserves a span slot and starts its clock. Safe on a nil
// trace (returns a no-op handle without reading the clock).
func (t *Trace) StartSpan(name string) SpanHandle {
	if t == nil {
		return SpanHandle{idx: -1}
	}
	idx := t.n.Add(1) - 1
	if idx >= MaxSpans {
		return SpanHandle{idx: -1}
	}
	now := time.Now()
	sp := &t.spans[idx]
	sp.Name = name
	sp.Start = now.Sub(t.start)
	sp.Dur = 0
	sp.Outcome = ""
	sp.nattrs = 0
	return SpanHandle{tr: t, t0: now, idx: idx}
}

// AddSpan records an already-completed interval (e.g. a queue wait
// measured before the trace reached the recording goroutine).
func (t *Trace) AddSpan(name string, start, end time.Time) {
	h := t.StartSpan(name)
	if h.idx < 0 {
		return
	}
	sp := &h.tr.spans[h.idx]
	sp.Start = start.Sub(t.start)
	sp.Dur = end.Sub(start)
}

// Attr attaches one numeric annotation (dropped past maxAttrs). The
// key must be a static string.
func (h SpanHandle) Attr(key string, v int64) SpanHandle {
	if h.idx < 0 {
		return h
	}
	sp := &h.tr.spans[h.idx]
	if int(sp.nattrs) < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Value: v}
		sp.nattrs++
	}
	return h
}

// Note labels the span's outcome ("hit", "miss-leader", "aborted"…).
// The label must be a static string.
func (h SpanHandle) Note(outcome string) SpanHandle {
	if h.idx >= 0 {
		h.tr.spans[h.idx].Outcome = outcome
	}
	return h
}

// Restart moves the span's start to now. A caller that must not lose
// a span reserves its slot with StartSpan before work that may fill
// the trace (a batch fan-out), then restarts it when its own phase
// begins.
func (h SpanHandle) Restart() SpanHandle {
	if h.idx >= 0 {
		h.t0 = time.Now()
		h.tr.spans[h.idx].Start = h.t0.Sub(h.tr.start)
	}
	return h
}

// End stamps the span's duration.
func (h SpanHandle) End() {
	if h.idx >= 0 {
		h.tr.spans[h.idx].Dur = time.Since(h.t0)
	}
}

// ctxKey keys the trace in a context.
type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, nil when absent. The nil
// result is directly usable: every recording method no-ops on it.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// TraceSnapshot is the retained, JSON-ready form of a finished trace;
// building one is the only allocation the tracing path ever performs,
// and only for the traces worth keeping (slow or failed).
type TraceSnapshot struct {
	ID             string         `json:"traceId"`
	Route          string         `json:"route,omitempty"`
	Status         int            `json:"status,omitempty"`
	Error          string         `json:"error,omitempty"`
	StartedAt      time.Time      `json:"startedAt"`
	DurationMicros int64          `json:"durationMicros"`
	DroppedSpans   int            `json:"droppedSpans,omitempty"`
	Spans          []SpanSnapshot `json:"spans"`

	seq uint64 // retention order, assigned by TraceRing.Add
}

// SpanSnapshot is one span of a TraceSnapshot.
type SpanSnapshot struct {
	Name        string           `json:"name"`
	StartMicros int64            `json:"startMicros"`
	DurMicros   int64            `json:"durMicros"`
	Outcome     string           `json:"outcome,omitempty"`
	Attrs       map[string]int64 `json:"attrs,omitempty"`
}

// Snapshot materializes the trace for retention. The trace itself
// stays reusable (Release after snapshotting).
func (t *Trace) Snapshot(route string, status int, errText string, dur time.Duration) *TraceSnapshot {
	if t == nil {
		return nil
	}
	n, dropped := int(t.n.Load()), 0
	if n > MaxSpans {
		n, dropped = MaxSpans, n-MaxSpans
	}
	snap := &TraceSnapshot{
		ID:             t.id,
		Route:          route,
		Status:         status,
		Error:          errText,
		StartedAt:      t.start,
		DurationMicros: dur.Microseconds(),
		DroppedSpans:   dropped,
		Spans:          make([]SpanSnapshot, n),
	}
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		out := SpanSnapshot{
			Name:        sp.Name,
			StartMicros: sp.Start.Microseconds(),
			DurMicros:   sp.Dur.Microseconds(),
			Outcome:     sp.Outcome,
		}
		if sp.nattrs > 0 {
			out.Attrs = make(map[string]int64, sp.nattrs)
			for a := 0; a < int(sp.nattrs); a++ {
				out.Attrs[sp.attrs[a].Key] = sp.attrs[a].Value
			}
		}
		snap.Spans[i] = out
	}
	return snap
}
