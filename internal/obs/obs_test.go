package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsFreeAndSafe(t *testing.T) {
	var tr *Trace
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on bare ctx = %v, want nil", got)
	}
	sp := tr.StartSpan("x")
	sp.Attr("n", 1).Note("ok")
	sp.Restart().End()
	tr.AddSpan("q", time.Now(), time.Now())
	if tr.ID() != "" || tr.Elapsed() != 0 {
		t.Fatal("nil trace accessors not zero")
	}
	if s := tr.Snapshot("r", 200, "", 0); s != nil {
		t.Fatalf("nil trace snapshot = %v", s)
	}
	tr.Release()

	// The whole nil-trace recording path must be allocation-free: this
	// is the contract that lets hooks live on the hot path.
	allocs := testing.AllocsPerRun(100, func() {
		h := tr.StartSpan("x")
		h.Attr("n", 1)
		h.End()
	})
	if allocs != 0 {
		t.Fatalf("nil-trace span recording allocates %v/op", allocs)
	}
}

func TestTraceRecordsAndSnapshots(t *testing.T) {
	tr := NewTrace("t-1")
	sp := tr.StartSpan("solve")
	sp.Attr("nodes", 42).Attr("pruned", 7).Note("exact")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.AddSpan("queue", tr.start, tr.start.Add(500*time.Microsecond))

	snap := tr.Snapshot("/v1/allocate", 200, "", tr.Elapsed())
	tr.Release()
	if snap.ID != "t-1" || snap.Route != "/v1/allocate" || snap.Status != 200 {
		t.Fatalf("snapshot header: %+v", snap)
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("span count %d, want 2", len(snap.Spans))
	}
	solve := snap.Spans[0]
	if solve.Name != "solve" || solve.Outcome != "exact" {
		t.Fatalf("solve span: %+v", solve)
	}
	if solve.Attrs["nodes"] != 42 || solve.Attrs["pruned"] != 7 {
		t.Fatalf("solve attrs: %v", solve.Attrs)
	}
	if solve.DurMicros < 900 {
		t.Fatalf("solve duration %dµs, want >= ~1ms", solve.DurMicros)
	}
	queue := snap.Spans[1]
	if queue.Name != "queue" || queue.DurMicros != 500 {
		t.Fatalf("queue span: %+v", queue)
	}
}

func TestTraceSpanOverflowCounted(t *testing.T) {
	tr := NewTrace("t-cap")
	for i := 0; i < MaxSpans+10; i++ {
		tr.StartSpan("s").End()
	}
	snap := tr.Snapshot("r", 200, "", 0)
	tr.Release()
	if len(snap.Spans) != MaxSpans {
		t.Fatalf("retained %d spans, want %d", len(snap.Spans), MaxSpans)
	}
	if snap.DroppedSpans != 10 {
		t.Fatalf("dropped %d, want 10", snap.DroppedSpans)
	}
}

// TestTraceConcurrentOverflowCounted: reservations racing past
// MaxSpans from several goroutines drop exactly the overflow.
func TestTraceConcurrentOverflowCounted(t *testing.T) {
	const workers, extra = 4, 5
	tr := NewTrace("t-race")
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < MaxSpans+extra; i += workers {
				tr.StartSpan("w").Attr("i", int64(i)).End()
			}
		}(g)
	}
	wg.Wait()
	snap := tr.Snapshot("r", 200, "", 0)
	tr.Release()
	if len(snap.Spans) != MaxSpans || snap.DroppedSpans != extra {
		t.Fatalf("kept %d spans, dropped %d; want %d and %d", len(snap.Spans), snap.DroppedSpans, MaxSpans, extra)
	}
}

// TestTraceReservedSpanSurvivesOverflow: a slot reserved before the
// trace fills keeps its span, timed from its Restart.
func TestTraceReservedSpanSurvivesOverflow(t *testing.T) {
	tr := NewTrace("t-reserve")
	enc := tr.StartSpan("encode")
	for i := 0; i < MaxSpans; i++ {
		tr.StartSpan("s").End()
	}
	time.Sleep(time.Millisecond)
	enc = enc.Restart()
	enc.End()
	snap := tr.Snapshot("r", 200, "", tr.Elapsed())
	tr.Release()
	if snap.DroppedSpans != 1 || snap.Spans[0].Name != "encode" {
		t.Fatalf("dropped %d, first span %q; want 1 dropped and the reserved encode kept", snap.DroppedSpans, snap.Spans[0].Name)
	}
	if got, last := snap.Spans[0].StartMicros, snap.Spans[MaxSpans-1].StartMicros; got < last+900 {
		t.Fatalf("restarted span starts at %dµs, want after the last filler (%dµs) plus ~1ms", got, last)
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	tr := NewTrace("t-conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				h := tr.StartSpan("w")
				h.Attr("i", int64(i))
				h.End()
			}
		}()
	}
	wg.Wait()
	snap := tr.Snapshot("r", 200, "", 0)
	tr.Release()
	if len(snap.Spans) != 64 {
		t.Fatalf("got %d spans, want 64", len(snap.Spans))
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace("ctx-1")
	defer tr.Release()
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
}

func TestHistogramBucketsAndExposition(t *testing.T) {
	h := NewHistogram("test_seconds", "test latencies.", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond) // <= 1ms
	h.Observe(5 * time.Millisecond)   // <= 10ms
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second) // +Inf
	if h.Count() != 4 {
		t.Fatalf("count %d, want 4", h.Count())
	}

	var b strings.Builder
	h.Expose(&b)
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	f := fams["test_seconds"]
	if f == nil || f.Type != "histogram" || f.Help == "" {
		t.Fatalf("family metadata: %+v", f)
	}
	wantCum := map[string]float64{"0.001": 1, "0.01": 3, "0.1": 3, "+Inf": 4}
	var sum, count float64
	for _, s := range f.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			if got, want := s.Value, wantCum[s.Labels["le"]]; got != want {
				t.Errorf("bucket le=%s: %v, want %v", s.Labels["le"], got, want)
			}
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	if count != 4 {
		t.Fatalf("_count %v, want 4", count)
	}
	wantSum := 0.0005 + 0.005 + 0.005 + 2
	if sum < wantSum-1e-9 || sum > wantSum+1e-9 {
		t.Fatalf("_sum %v, want %v", sum, wantSum)
	}
}

// TestHistogramQuantile pins the histogram_quantile estimate: zero
// when there is nothing to estimate, linear interpolation inside the
// bucket holding the rank, the largest finite bound for the overflow.
func TestHistogramQuantile(t *testing.T) {
	obs := func(bounds []float64, ds ...time.Duration) *Histogram {
		h := NewHistogram("q", "q", bounds)
		for _, d := range ds {
			h.Observe(d)
		}
		return h
	}
	var nilH *Histogram
	secs := []float64{1, 2, 4}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want time.Duration
	}{
		{"nil", nilH, 0.5, 0},
		{"empty", obs(nil), 0.99, 0},
		// One sample in (25µs, 50µs]: the rank sits half-way up it.
		{"one sample p50", obs(nil, 42*time.Microsecond), 0.5, 37500 * time.Nanosecond},
		{"one sample p99", obs(nil, 42*time.Microsecond), 0.99, 49750 * time.Nanosecond},
		{"all overflow", obs(nil, 20*time.Second, time.Minute), 0.5, 10 * time.Second},
		// Two samples in (1s, 2s], two in (2s, 4s]: rank 3 of 4 lies
		// half-way into the second bucket, 2 + (4-2)·(3-2)/2 = 3s.
		{"interpolated p75", obs(secs, 1500*time.Millisecond, 1500*time.Millisecond, 3*time.Second, 3*time.Second), 0.75, 3 * time.Second},
		// Rank 2 of 4 closes the first bucket: its upper bound.
		{"bucket edge p50", obs(secs, 1500*time.Millisecond, 1500*time.Millisecond, 3*time.Second, 3*time.Second), 0.5, 2 * time.Second},
		// The empty first bucket is skipped, not divided by.
		{"empty leading bucket p0", obs(secs, 3*time.Second), 0, 2 * time.Second},
	}
	for _, c := range cases {
		if got := c.h.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewHistogram("x", "x", nil)
	allocs := testing.AllocsPerRun(100, func() { h.Observe(3 * time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v/op", allocs)
	}
	var nilH *Histogram
	allocs = testing.AllocsPerRun(100, func() { nilH.Observe(time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("nil Observe allocates %v/op", allocs)
	}
}

func TestHistogramVecAndCounterVec(t *testing.T) {
	hv := NewHistogramVec("lat_seconds", "latency.", []string{"route", "status"}, []float64{0.01})
	hv.Observe(time.Millisecond, "/v1/allocate", "200")
	hv.Observe(time.Second, "/v1/allocate", "200")
	hv.Observe(time.Millisecond, "/v1/batch", "422")

	cv := NewCounterVec("req_total", "requests.", []string{"route", "status"})
	cv.Add(1, "/v1/allocate", "200")
	cv.Add(2, "/v1/allocate", "200")
	cv.Add(1, "/metrics", "405")

	var b strings.Builder
	hv.Expose(&b)
	cv.Expose(&b)
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	lat := fams["lat_seconds"]
	if lat == nil || lat.Type != "histogram" {
		t.Fatalf("lat family: %+v", lat)
	}
	counts := map[string]float64{}
	for _, s := range lat.Samples {
		if strings.HasSuffix(s.Name, "_count") {
			counts[s.Labels["route"]+"|"+s.Labels["status"]] = s.Value
		}
	}
	if counts["/v1/allocate|200"] != 2 || counts["/v1/batch|422"] != 1 {
		t.Fatalf("vec counts: %v", counts)
	}
	req := fams["req_total"]
	if req == nil || req.Type != "counter" {
		t.Fatalf("req family: %+v", req)
	}
	if got := SumFamily(fams, "req_total"); got != 4 {
		t.Fatalf("SumFamily(req_total) = %v, want 4", got)
	}
	if got := SumFamily(fams, "lat_seconds"); got != 3 {
		t.Fatalf("SumFamily(lat_seconds) = %v, want 3 (histogram counts)", got)
	}
}

func TestTraceRingEvictionAndOrder(t *testing.T) {
	r := NewTraceRing(4)
	for i := 0; i < 7; i++ {
		r.Add(&TraceSnapshot{ID: string(rune('a' + i))})
	}
	snaps := r.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("retained %d, want 4", len(snaps))
	}
	// Newest first: g, f, e, d.
	want := []string{"g", "f", "e", "d"}
	for i, s := range snaps {
		if s.ID != want[i] {
			t.Fatalf("order %d: %s, want %s", i, s.ID, want[i])
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len %d, want 4", r.Len())
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(&TraceSnapshot{ID: "x"})
				r.Snapshots()
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 8 {
		t.Fatalf("Len %d, want 8", r.Len())
	}
}

func TestParseExpositionLabelEscapes(t *testing.T) {
	in := `# HELP m help text
# TYPE m counter
m{path="a\"b\\c"} 3
bare 1.5
`
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	m := fams["m"]
	if m.Samples[0].Labels["path"] != `a"b\c` {
		t.Fatalf("unescaped label: %q", m.Samples[0].Labels["path"])
	}
	bare := fams["bare"]
	if bare == nil || bare.Type != "" || bare.Samples[0].Value != 1.5 {
		t.Fatalf("bare family: %+v", bare)
	}
}

func TestGaugeVecSetAndExposition(t *testing.T) {
	g := NewGaugeVec("test_node_up", "whether the node is up", []string{"node"})
	g.Set(1, "n1")
	g.Set(1, "n2")
	g.Set(0, "n1") // gauges move both ways
	var nilGauge *GaugeVec
	nilGauge.Set(5, "x") // nil-safe no-op

	var buf bytes.Buffer
	g.Expose(&buf)
	fams, err := ParseExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	f := fams["test_node_up"]
	if f == nil || f.Type != "gauge" {
		t.Fatalf("family missing or mistyped: %+v", f)
	}
	got := map[string]float64{}
	for _, s := range f.Samples {
		got[s.Labels["node"]] = s.Value
	}
	if got["n1"] != 0 || got["n2"] != 1 {
		t.Fatalf("gauge values wrong: %v", got)
	}
}
