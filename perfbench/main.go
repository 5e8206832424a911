// Command perfbench is the repository's end-to-end benchmark. It execs
// the prebuilt rcaserve (and, for the cluster workload, rcagate)
// binaries, drives them over loopback HTTP from one seeded load
// generator with at most two requests in flight, verifies every served
// allocation against the paper's cost model, and prints one report
// whose last line is a JSON object of the run's metrics.
//
// Usage (from the repository root, through the build wrapper):
//
//	bash perfbench/run.sh --workload warm-sync --seed 1 --seconds 25 --trace 0
//
// A run sets the servers up five times and reports the median set-up
// time, offers the workload's ops open-loop at a fixed rate for 60% of
// --seconds (latency), then runs the ops planned for the remaining 40%
// closed-loop on two connections (throughput), and measures a reference
// server of its own around both loops to rescale the timings to a
// nominal host speed (see ref.go). With --trace 1 the same timed run
// also reads each layer from /metrics deltas, then a separate pass
// against servers started with -trace-min=-1ns collects their spans
// from /debug/requests and the traced latency, and an in-process
// replay of the same op stream times the calls into each layer. The
// metrics printed are the end-to-end ones with --trace 0 and the
// per-layer ones with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type workloadName string

const (
	warmSync     workloadName = "warm-sync"
	coldSolve    workloadName = "cold-solve"
	clusterAsync workloadName = "cluster-async"
)

// workloadSpec fixes a workload's topology and load. Both rates stay
// fixed, so that two commits are compared on the same work: the open
// loop offers rate ops/s, and the closed loop runs the ops that
// capacity ops/s complete in its share of --seconds. Both were set from
// closed-loop capacities measured on a 2-vCPU x86-64 virtual machine,
// whose speed varied about 2x with its host's load: rate is 20-50% of
// the capacity measured.
type workloadSpec struct {
	name     workloadName
	nodes    int  // rcaserve processes
	gateway  bool // rcagate in front, nodes with -node-id and -wal-dir
	rate     float64
	capacity float64
}

var workloads = []*workloadSpec{
	{name: warmSync, nodes: 1, rate: 1200, capacity: 3300},
	{name: coldSolve, nodes: 1, rate: 170, capacity: 370},
	{name: clusterAsync, nodes: 2, gateway: true, rate: 300, capacity: 800},
}

// closedLimit caps the closed loop at this many times its planned
// length, so a much slower commit still ends within the run's time.
const closedLimit = 3

// setups is how many times a run sets its servers up; setup_s is the
// median.
const setups = 5

// An open loop is invalid when the load generator itself fell behind
// its schedule by more than lateLimit at p99, so that the offered load
// was not the workload's, or when the host took more than stealLimit
// of the CPU time, so that the figures say more about the neighbours
// than about the code. An invalid open loop is run once more on fresh
// servers; if the generator is still late the run fails, while a
// second loop that the host disturbed is reported as measured, with
// its steal share in the report.
const (
	lateLimit   = 20 * time.Millisecond
	stealLimit  = 0.10
	openRetries = 1
)

func main() {
	if len(os.Args) == 4 && os.Args[3] == refFlag {
		if err := referenceServer(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench reference server:", err)
			os.Exit(1)
		}
		return
	}
	opts := options{}
	flag.StringVar(&opts.workload, "workload", "", "workload: warm-sync, cold-solve or cluster-async")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the generated op stream")
	flag.IntVar(&opts.seconds, "seconds", 25, "planned measured seconds per run (60% open loop, 40% closed loop)")
	flag.IntVar(&opts.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	flag.StringVar(&opts.bin, "bin", "", "directory holding the prebuilt rcaserve and rcagate")
	flag.StringVar(&opts.work, "work", "", "scratch directory for logs, WAL directories and span dumps")
	flag.Parse()
	res, err := run(opts)
	if err == nil {
		err = res.check()
		if err != nil {
			res.report(os.Stderr) // what the invalid run saw
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.report(os.Stdout)
	res.printResult(os.Stdout)
}

type options struct {
	workload      string
	seed          int64
	seconds       int
	trace         int
	bin, work     string
	openSeconds   float64
	closedSeconds float64
}

func lookup(name string) (*workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if string(w.name) == name {
			return w, nil
		}
		names = append(names, string(w.name))
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func run(opts options) (*result, error) {
	spec, err := lookup(opts.workload)
	if err != nil {
		return nil, err
	}
	if opts.seconds < 1 || opts.trace < 0 || opts.trace > 1 {
		return nil, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if opts.bin == "" || opts.work == "" {
		return nil, fmt.Errorf("need -bin and -work (run through perfbench/run.sh)")
	}
	opts.openSeconds = 0.6 * float64(opts.seconds)
	opts.closedSeconds = 0.4 * float64(opts.seconds)
	openOps := int(spec.rate * opts.openSeconds)
	s := makeStream(spec.name, opts.seed, openOps, int(spec.capacity*opts.closedSeconds))

	dir, err := os.MkdirTemp(opts.work, "run-")
	if err != nil {
		return nil, err
	}
	ref, err := startReference(refDir(dir))
	if err != nil {
		return nil, err
	}
	res := &result{spec: spec, opts: opts, meta: metadata(opts), ref: ref}
	err = res.timed(s, dir)
	if err == nil && opts.trace == 1 {
		err = res.traced(s, dir)
	}
	if serr := ref.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	return res, os.RemoveAll(dir)
}

// metadata records what a result depends on besides the code.
func metadata(opts options) map[string]string {
	version := "unknown"
	if out, err := exec.Command(filepath.Join(opts.bin, "rcaserve"), "-version").Output(); err == nil {
		version = strings.TrimSpace(strings.TrimPrefix(string(out), "rcaserve"))
	}
	return map[string]string{
		"workload":   opts.workload,
		"seed":       fmt.Sprint(opts.seed),
		"seconds":    fmt.Sprint(opts.seconds),
		"trace":      fmt.Sprint(opts.trace),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     version, // rcaserve's VCS stamp; "devel" outside a git checkout
	}
}

// result gathers one run's measurements.
type result struct {
	spec *workloadSpec
	opts options
	meta map[string]string

	setup          []float64 // seconds, one per set-up
	open, closed   *recorder
	closedElapsed  time.Duration
	openSteal      float64 // share of CPU time the host took during the open loop
	closedSteal    float64
	closedCPU      float64 // server CPU seconds over the closed loop
	clientCPU      float64 // the load generator's own CPU seconds over it
	invalidOpen    int     // open loops repeated as invalid
	window         delta   // /metrics over the open-loop window
	rss            float64
	tracedOpen     *recorder
	spans          map[string]float64 // server span µs by name, traced pass
	tracedRequests int
	rep            *replayed
	ref            *proc     // the reference server
	refRates       []float64 // its closed-loop ops/s around the loops
}

// timed is the untraced run: set up five times, keeping the last
// servers; open loop; closed loop; stop. An open loop the generator
// could not keep on schedule is repeated on freshly set-up servers, so
// that no repeated op finds a warm cache.
func (r *result) timed(s *stream, dir string) error {
	for attempt := 0; ; attempt++ {
		n := 1
		if attempt == 0 {
			n = setups
		}
		topo, c, err := r.setUp(s, filepath.Join(dir, fmt.Sprintf("attempt-%d", attempt)), n)
		if err != nil {
			return err
		}
		x := &runner{c: c, split: r.spec.gateway}
		r.refRates = r.refRates[:0]
		var before, after *scrapes
		if err = r.measureReference(); err == nil {
			before, err = scrapeTopology(topo)
		}
		if err == nil {
			c0 := readCPUTicks()
			r.open = x.runOpen(s.open, r.spec.rate)
			r.openSteal = stealFrac(c0, readCPUTicks())
			after, err = scrapeTopology(topo)
			r.window = delta{before, after}
		}
		retry := err == nil && (r.genLate() > lateLimit || r.openSteal > stealLimit) && attempt < openRetries
		if err == nil && !retry {
			if err = r.measureReference(); err == nil {
				err = r.closedLoop(x, topo, s)
			}
			if err == nil {
				err = r.measureReference()
			}
		}
		c.close()
		if err != nil {
			topo.kill()
			return err
		}
		if err := topo.stop(); err != nil || !retry {
			return err
		}
		r.invalidOpen++
	}
}

func (r *result) measureReference() error {
	rate, err := measureReference(r.ref, refSeconds)
	r.refRates = append(r.refRates, rate)
	return err
}

// hostSpeed is the run's host speed relative to the machine the
// benchmark was written on (see ref.go).
func (r *result) hostSpeed() float64 {
	return quantile(append([]float64(nil), r.refRates...), 0.5) / refNominal
}

// closedLoop runs the closed-loop phase and reads what the servers
// spent on it.
func (r *result) closedLoop(x *runner, topo *topology, s *stream) error {
	c0, self0 := readCPUTicks(), selfCPUSeconds()
	cpu0, err := topo.cpuSeconds()
	if err != nil {
		return err
	}
	r.closed, r.closedElapsed = x.runClosed(s.closed, time.Duration(closedLimit*r.opts.closedSeconds*float64(time.Second)))
	cpu1, err := topo.cpuSeconds()
	if err != nil {
		return err
	}
	r.closedSteal = stealFrac(c0, readCPUTicks())
	r.closedCPU = cpu1 - cpu0
	r.clientCPU = selfCPUSeconds() - self0
	r.rss, err = topo.rssBytes()
	return err
}

// setUp starts the servers n times, each time waiting for health and
// running the warm-up pass, records each set-up time, and keeps the
// last servers running.
func (r *result) setUp(s *stream, dir string, n int) (*topology, *client, error) {
	for i := 0; ; i++ {
		t0 := time.Now()
		t, err := startTopology(r.spec, r.opts.bin, filepath.Join(dir, fmt.Sprintf("setup-%d", i)), false)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(t.entry())
		x := &runner{c: c, split: r.spec.gateway}
		if warm := x.runSeq(s.warm); warm.failed > 0 {
			c.close()
			t.kill()
			return nil, nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", warm.failed, warm.attempted, warm.fails)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if i == n-1 {
			return t, c, nil
		}
		c.close()
		if err := t.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// traced runs the open-loop segment again against servers that keep
// every request's spans, then replays the stream in process.
func (r *result) traced(s *stream, dir string) error {
	topo, err := startTopology(r.spec, r.opts.bin, filepath.Join(dir, "traced"), true)
	if err != nil {
		return err
	}
	c := newClient(topo.entry())
	x := &runner{c: c, split: r.spec.gateway}
	if warm := x.runSeq(s.warm); warm.failed > 0 {
		err = fmt.Errorf("traced warm-up: %d requests failed: %v", warm.failed, warm.fails)
	}
	if err == nil {
		r.tracedOpen = x.runOpen(s.open, r.spec.rate)
		r.spans, r.tracedRequests, err = serverSpans(topo)
	}
	c.close()
	if err != nil {
		topo.kill()
		return err
	}
	if err := topo.stop(); err != nil {
		return err
	}
	r.rep, err = replay(r.spec, s, time.Duration(r.opts.openSeconds/2*float64(time.Second)))
	if err != nil {
		return err
	}
	return writeSpans(filepath.Join(r.opts.work, fmt.Sprintf("spans-%s-%d.jsonl", r.spec.name, r.opts.seed)), r.rep.spans)
}

// check fails a run whose measurements cannot stand: too few samples
// for a p99, or a generator that fell behind its schedule.
func (r *result) check() error {
	if n := len(r.open.lat); n < 1000 {
		return fmt.Errorf("open loop produced %d latency samples; a p99 needs at least 1000", n)
	}
	if late := r.genLate(); late > lateLimit {
		return fmt.Errorf("invalid run: open-loop generator ran %v late at p99 (limit %v) in %d open loops", late.Round(time.Microsecond), lateLimit, r.invalidOpen)
	}
	return nil
}

// genLate is the p99 of the load generator's own lateness in the open
// loop.
func (r *result) genLate() time.Duration {
	return time.Duration(quantile(r.open.late, 0.99) * 1e6)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for no samples). It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metric is one named measurement of the report.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// q1, q3 and n describe the repeats or samples the value
	// summarizes, for the human-readable report; raw is the value
	// before rescaling to the nominal host speed, 0 if not rescaled.
	q1, q3, raw float64
	n           int
	src         string
}

// atNominal rescales a timing measured at the run's host speed to the
// nominal speed (see ref.go): a time is multiplied by the host speed, a
// rate divided, which the caller selects with factor.
func (m metric) atNominal(factor float64) metric {
	m.raw = m.Value
	m.Value *= factor
	m.q1 *= factor
	m.q3 *= factor
	return m
}

// summary is the median and quartiles of xs.
func summary(name, unit string, xs []float64) metric {
	ys := append([]float64(nil), xs...)
	return metric{Name: name, Unit: unit, Value: quantile(ys, 0.5), q1: quantile(ys, 0.25), q3: quantile(ys, 0.75), n: len(ys)}
}

// windowed splits the open loop by due time into windows and
// summarizes the q-quantile of each; the median over windows is the
// run's value, so that a host stall of a few milliseconds moves one
// window's figure, not the run's. A window holds at least 100 requests
// and five beyond its quantile (500 for the p99); the run as a whole
// holds at least ten beyond the p99 (checked in check).
func (r *result) windowed(name string, q float64) metric {
	lat, at := r.open.lat, r.open.at
	perWindow := max(100, int(math.Ceil(5/(1-q))))
	w := max(1, len(lat)/perWindow)
	span := float64(len(r.open.late)) / r.spec.rate
	wins := make([][]float64, w)
	for i, l := range lat {
		k := min(w-1, int(at[i]/span*float64(w)))
		wins[k] = append(wins[k], l)
	}
	qs := make([]float64, w)
	for k := range wins {
		qs[k] = quantile(wins[k], q)
	}
	m := summary(name, "ms", qs)
	m.n = len(lat)
	return m
}

// endToEnd computes the metrics a user of the service sees.
func (r *result) endToEnd() []metric {
	attempted, failed := r.counts()
	return []metric{
		summary("setup_s", "s", r.setup),
		r.windowed("latency_p50_ms", 0.5).atNominal(r.hostSpeed()),
		r.throughput().atNominal(1 / r.hostSpeed()),
		{Name: "ok_frac", Unit: "ratio", Value: float64(attempted-failed) / float64(attempted), n: attempted},
		{Name: "rss_peak_mb", Unit: "MB", Value: r.rss / 1e6, n: len(r.spec.allNames())},
		{Name: "alloc_cost_total", Unit: "count", Value: float64(r.open.cost), n: len(r.open.late)},
	}
}

// throughput is the median over one-second windows of the closed-loop
// phase of verified ops completed per second.
func (r *result) throughput() metric {
	windows := max(1, int(r.closedElapsed/time.Second))
	w := r.closedElapsed / time.Duration(windows)
	counts := make([]float64, windows)
	for _, at := range r.closed.okAt {
		if i := int(at / w); i < windows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	m := summary("throughput_ops_s", "ops/s", counts)
	m.n = r.closed.okOps
	return m
}

func (r *result) counts() (attempted, failed int) {
	return r.open.attempted + r.closed.attempted, r.open.failed + r.closed.failed
}

func (w *workloadSpec) allNames() []string {
	names := make([]string, w.nodes)
	for i := range names {
		names[i] = fmt.Sprintf("rcaserve-%d", i+1)
	}
	if w.gateway {
		names = append(names, "rcagate")
	}
	return names
}

// report writes the human-readable report.
func (r *result) report(f *os.File) {
	keys := make([]string, 0, len(r.meta))
	for k := range r.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(f, "perfbench %s:", r.spec.name)
	for _, k := range keys {
		fmt.Fprintf(f, " %s=%s", k, r.meta[k])
	}
	fmt.Fprintln(f)
	e2e := r.endToEnd()
	fmt.Fprintln(f, "\nend-to-end (untraced)        value     unit      q1 / median / q3             samples  as measured")
	p99 := r.windowed("latency_p99_ms", 0.99)
	p99.src = "(per layer: too host-bound to gate)"
	for _, m := range append(e2e, p99) {
		fmt.Fprintf(f, "  %-24s %12.4f %-8s", m.Name, m.Value, m.Unit)
		if m.q1 != 0 || m.q3 != 0 {
			fmt.Fprintf(f, " %10.4f / %10.4f / %10.4f", m.q1, m.Value, m.q3)
		} else {
			fmt.Fprintf(f, " %36s", "")
		}
		fmt.Fprintf(f, " %8d", m.n)
		if m.raw != 0 {
			fmt.Fprintf(f, "  %.4f", m.raw)
		}
		fmt.Fprintln(f, "", m.src)
	}
	attempted, failed := r.counts()
	fmt.Fprintf(f, "  attempted %d, failed %d", attempted, failed)
	for _, class := range sortedKeys(mergeFails(r.open.fails, r.closed.fails)) {
		fmt.Fprintf(f, ", %s %d", class, mergeFails(r.open.fails, r.closed.fails)[class])
	}
	fmt.Fprintf(f, "\n  generator: late p99 %.3fms (limit %v), open loop %d ops at %.0f/s (%d repeated), closed loop %.2fs\n",
		quantile(r.open.late, 0.99), lateLimit, len(r.open.late), r.spec.rate, r.invalidOpen, r.closedElapsed.Seconds())
	fmt.Fprintf(f, "  host speed %.3f of nominal: reference server at %.0f ops/s around the loops (%v), nominal %.0f\n",
		r.hostSpeed(), r.hostSpeed()*refNominal, roundAll(r.refRates), refNominal)
	fmt.Fprintf(f, "  host steal: open loop %.1f%% (limit %.0f%%), closed loop %.1f%%\n", 100*r.openSteal, 100*stealLimit, 100*r.closedSteal)
	ops := float64(max(1, r.closed.okOps))
	fmt.Fprintf(f, "  CPU per closed-loop op: servers %.0fµs, load generator %.0fµs\n", r.closedCPU*1e6/ops, r.clientCPU*1e6/ops)

	if r.opts.trace == 1 {
		fmt.Fprintln(f, "\nper-layer (S: /metrics deltas over the open loop, R: in-process replay, T: /debug/requests spans)")
		for _, m := range r.perLayer() {
			fmt.Fprintf(f, "  %-32s %14.4f %-6s %s\n", m.Name, m.Value, m.Unit, m.src)
		}
		r.printBreakdown(f)
	}
}

// printResult writes the result line: the end-to-end metrics, or the
// per-layer ones for a traced run.
func (r *result) printResult(f *os.File) {
	metrics := r.endToEnd()
	if r.opts.trace == 1 {
		metrics = r.perLayer()
	}
	attempted, failed := r.counts()
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.correct(), Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	for _, m := range metrics {
		out.Metrics[m.Name] = m
	}
	b, _ := json.Marshal(out) //nolint:errcheck // numbers and strings only
	fmt.Fprintf(f, "\n%s\n", b)
}

// correct is false when any served answer failed verification, or when
// the traced run's replay disagrees with the served allocation costs.
func (r *result) correct() bool {
	fails := mergeFails(r.open.fails, r.closed.fails)
	if fails["verify"] > 0 || fails["decode"] > 0 {
		return false
	}
	if r.rep != nil {
		served, replayed := r.costPrefix()
		return served == replayed
	}
	return true
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x)
	}
	return out
}

func mergeFails(a, b map[string]int) map[string]int {
	m := make(map[string]int)
	for k, v := range a {
		m[k] += v
	}
	for k, v := range b {
		m[k] += v
	}
	return m
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
