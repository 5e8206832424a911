package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency bounds in seconds: 25µs → 10s,
// roughly logarithmic. The low end matters here — a warm cache hit is
// ~1.4µs and a full branch-and-bound solve tens of µs to ms, so the
// classic Prometheus 5ms floor would fold the entire engine into one
// bucket.
var DefBuckets = []float64{
	25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram rendered in native
// Prometheus exposition (`_bucket`/`_sum`/`_count`). Buckets are
// plain atomic counters incremented non-cumulatively on the hot path;
// the cumulative `le` view is computed at scrape time. Observe on a
// nil histogram is a no-op, so optional hooks cost one nil check.
type Histogram struct {
	name   string
	help   string
	bounds []float64       // ascending upper bounds, seconds
	cells  []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram; nil bounds selects DefBuckets.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: bounds,
		cells:  make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration. Nil-safe, allocation-free.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.cells[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-quantile (q in [0,1]) of every observation
// since construction the way Prometheus histogram_quantile does: find
// the bucket holding rank q·count and interpolate linearly between its
// lower and upper bound (the first bucket starts at 0). A rank in the
// overflow bucket answers the largest finite bound. Nil or empty
// histograms answer 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	// Sum the cells rather than reading count, so the rank and the
	// buckets come from the same (unsynchronized) pass.
	counts := make([]uint64, len(h.cells))
	var total uint64
	for i := range h.cells {
		counts[i] = h.cells[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, n := range counts {
		if n == 0 || float64(cum+n) < rank {
			cum += n
			continue
		}
		if i == len(h.bounds) {
			break
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		s := lo + (h.bounds[i]-lo)*(rank-float64(cum))/float64(n)
		return seconds(s)
	}
	return seconds(h.bounds[len(h.bounds)-1])
}

// seconds converts float seconds to a Duration, rounded to the
// nanosecond so bounds such as 10 and 2.5e-3 convert exactly.
func seconds(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}

// Expose renders the full exposition block for the histogram.
func (h *Histogram) Expose(w io.Writer) {
	if h == nil {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	h.writeSamples(w, "")
}

// writeSamples renders the sample lines with an optional pre-rendered
// label prefix (`route="x",status="200"`), shared with HistogramVec.
func (h *Histogram) writeSamples(w io.Writer, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.cells[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n",
			h.name, labels, sep, strconv.FormatFloat(b, 'g', -1, 64), cum)
	}
	cum += h.cells[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", h.name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", h.name, formatSeconds(h.sum.Load()))
		fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", h.name, labels, formatSeconds(h.sum.Load()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", h.name, labels, h.count.Load())
	}
}

func formatSeconds(nanos int64) string {
	return strconv.FormatFloat(float64(nanos)/1e9, 'g', -1, 64)
}

// HistogramVec is a histogram family partitioned by label values
// (e.g. route+status). Children are created on first observation;
// the steady-state path is one RLock and a map probe.
type HistogramVec struct {
	name       string
	help       string
	labelNames []string
	bounds     []float64

	mu       sync.RWMutex
	children map[string]*Histogram // key: rendered label pairs
}

// NewHistogramVec builds an empty family; nil bounds = DefBuckets.
func NewHistogramVec(name, help string, labelNames []string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{
		name:       name,
		help:       help,
		labelNames: labelNames,
		bounds:     bounds,
		children:   make(map[string]*Histogram),
	}
}

// Observe records d against the child for the given label values.
func (v *HistogramVec) Observe(d time.Duration, labelValues ...string) {
	if v == nil {
		return
	}
	v.child(labelValues).Observe(d)
}

func (v *HistogramVec) child(labelValues []string) *Histogram {
	key := renderLabels(v.labelNames, labelValues)
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[key]; h == nil {
		h = &Histogram{name: v.name, bounds: v.bounds, cells: make([]atomic.Uint64, len(v.bounds)+1)}
		v.children[key] = h
	}
	return h
}

// Expose renders the family: one HELP/TYPE header, then every child
// in sorted label order for a stable exposition.
func (v *HistogramVec) Expose(w io.Writer) {
	if v == nil {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", v.name, v.help, v.name)
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		h := v.children[k]
		v.mu.RUnlock()
		h.writeSamples(w, k)
	}
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	name       string
	help       string
	labelNames []string

	mu       sync.RWMutex
	children map[string]*atomic.Uint64
}

// NewCounterVec builds an empty counter family.
func NewCounterVec(name, help string, labelNames []string) *CounterVec {
	return &CounterVec{
		name:       name,
		help:       help,
		labelNames: labelNames,
		children:   make(map[string]*atomic.Uint64),
	}
}

// Add increments the child for the given label values by n.
func (v *CounterVec) Add(n uint64, labelValues ...string) {
	if v == nil {
		return
	}
	key := renderLabels(v.labelNames, labelValues)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c == nil {
		v.mu.Lock()
		if c = v.children[key]; c == nil {
			c = new(atomic.Uint64)
			v.children[key] = c
		}
		v.mu.Unlock()
	}
	c.Add(n)
}

// Expose renders the family in sorted label order.
func (v *CounterVec) Expose(w io.Writer) {
	if v == nil {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.name, v.help, v.name)
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		c := v.children[k]
		v.mu.RUnlock()
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, k, c.Load())
	}
}

// renderLabels joins label names and values into the exposition form
// `a="x",b="y"`. Missing values render as "".
func renderLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		if i < len(values) {
			b.WriteString(escapeLabel(values[i]))
		}
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
