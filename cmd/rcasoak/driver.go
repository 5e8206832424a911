// The client driver: rcasoak re-execs itself with -driver to get an
// out-of-process load client, so the server is exercised across a real
// process and socket boundary by several independent OS processes —
// not by goroutines sharing the harness's runtime. Each driver paces a
// seeded traffic stream against the server for one phase, performs
// every op's reference solve locally with the same core allocator the
// server uses, and emits a JSON ledger on stdout for the parent's
// invariant oracle: op/outcome counts, HTTP round-trip latencies, and
// one record per async job with its observed terminal state and
// result-vs-reference verdict.
//
// Drivers are deliberately tolerant of server death: during a restart
// window requests fail with connection errors, which are counted and
// retried (polls) or abandoned (submissions) — the parent knows the
// restart windows and the oracle decides which unresolved jobs they
// excuse.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/core"
	"dspaddr/internal/frontend"
	"dspaddr/internal/merge"
	"dspaddr/internal/workload"
)

// refSolveTimeout bounds one local reference solve; a reference that
// cannot finish in this window (pathological large-N) is recorded as
// unchecked rather than blocking the driver.
const refSolveTimeout = 3 * time.Second

// inFlightPerDriver caps concurrent ops per driver process so a slow
// server degrades pacing instead of ballooning goroutines.
const inFlightPerDriver = 16

// driverConfig is the -driver mode configuration (parent-supplied).
type driverConfig struct {
	base        string        // server base URL
	index       int           // driver ordinal (report labeling)
	seed        int64         // traffic seed
	rate        int           // target ops/second for this driver
	mix         workload.Mix  // op class weights
	freshPermil int           // unique-pattern fraction override
	burst       int           // jobs per burst submission
	runFor      time.Duration // issuing window
	grace       time.Duration // post-window polling grace
}

// jobRecord is one async job's lifecycle as this driver observed it.
type jobRecord struct {
	ID    string `json:"id"`
	Class string `json:"class"`
	// SubmitMs and ResolveMs are unix milliseconds bracketing the
	// job's observation interval; the oracle intersects them with
	// restart windows to excuse state lost to a process replacement.
	SubmitMs  int64 `json:"submitMs"`
	ResolveMs int64 `json:"resolveMs"`
	// State is the final observation: done|failed|timeout|canceled
	// (terminal states), evicted (410: finished, result expired),
	// lost (404 or still pending at deadline — oracle decides).
	State string `json:"state"`
	// RefChecked reports that a done result was compared against the
	// local reference solve; RefOK and EchoOK are the verdicts.
	RefChecked bool   `json:"refChecked"`
	RefOK      bool   `json:"refOK"`
	EchoOK     bool   `json:"echoOK"`
	Err        string `json:"err,omitempty"`
}

// ledger is the driver's stdout document.
type ledger struct {
	Driver        int                `json:"driver"`
	Seed          int64              `json:"seed"`
	Ops           map[string]int     `json:"ops"`
	Outcomes      map[string]int     `json:"outcomes"`
	LatencyMicros map[string][]int64 `json:"latencyMicros"`
	Jobs          []jobRecord        `json:"jobs"`
	Violations    []string           `json:"violations"`
}

// refVerdict is a cached local reference solve.
type refVerdict struct {
	cost int
	ok   bool // false: reference errored or timed out — skip the check
}

type driver struct {
	cfg    driverConfig
	client *http.Client

	mu  sync.Mutex
	led ledger

	refMu sync.Mutex
	refs  map[string]refVerdict
}

// runDriver is the -driver entry point; its exit code reports harness
// errors only (invariant verdicts belong to the parent's oracle).
func runDriver(cfg driverConfig) error {
	d := &driver{
		cfg:    cfg,
		client: &http.Client{Timeout: 15 * time.Second},
		led: ledger{
			Driver:        cfg.index,
			Seed:          cfg.seed,
			Ops:           map[string]int{},
			Outcomes:      map[string]int{},
			LatencyMicros: map[string][]int64{},
			Violations:    []string{},
			Jobs:          []jobRecord{},
		},
		refs: map[string]refVerdict{},
	}
	gen := workload.NewTrafficGen(cfg.seed, workload.TrafficOptions{
		Mix:           cfg.mix,
		BurstSize:     cfg.burst,
		FreshFraction: cfg.freshPermil,
	})

	deadline := time.Now().Add(cfg.runFor)
	pollDeadline := deadline.Add(cfg.grace)
	interval := time.Second / time.Duration(maxInt(1, cfg.rate))
	sem := make(chan struct{}, inFlightPerDriver)
	var wg sync.WaitGroup
	for time.Now().Before(deadline) {
		op := gen.Next()
		sem <- struct{}{}
		wg.Add(1)
		go func(op workload.Op) {
			defer func() { <-sem; wg.Done() }()
			d.dispatch(op, pollDeadline)
		}(op)
		time.Sleep(interval)
	}
	wg.Wait()

	d.client.CloseIdleConnections()
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(&d.led)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// dispatch runs one op to completion (including async polling).
func (d *driver) dispatch(op workload.Op, pollDeadline time.Time) {
	d.count("ops", op.Kind.String())
	switch op.Kind {
	case workload.OpSync:
		d.doSync(op.Jobs[0])
	case workload.OpBatch:
		d.doBatch(op.Jobs)
	case workload.OpAsync, workload.OpBigN:
		d.doAsync(op, false, pollDeadline)
	case workload.OpAsyncBurst:
		d.doAsync(op, false, pollDeadline)
	case workload.OpCancel:
		d.doAsync(op, true, pollDeadline)
	}
}

// ---- ledger accounting (mutex-guarded; drivers are concurrent inside) ----

func (d *driver) count(table, key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch table {
	case "ops":
		d.led.Ops[key]++
	default:
		d.led.Outcomes[key]++
	}
}

func (d *driver) outcome(class, what string) { d.count("outcomes", class+"."+what) }

func (d *driver) latency(class string, elapsed time.Duration) {
	d.mu.Lock()
	d.led.LatencyMicros[class] = append(d.led.LatencyMicros[class], elapsed.Microseconds())
	d.mu.Unlock()
}

func (d *driver) violate(format string, args ...any) {
	d.mu.Lock()
	d.led.Violations = append(d.led.Violations, fmt.Sprintf(format, args...))
	d.mu.Unlock()
}

func (d *driver) record(rec jobRecord) {
	d.mu.Lock()
	d.led.Jobs = append(d.led.Jobs, rec)
	d.mu.Unlock()
}

// toJob renders a spec as the wire job the server decodes.
func toJob(s workload.JobSpec) api.Job {
	j := api.Job{
		AGU:      api.AGU{Registers: s.AGU.Registers, ModifyRange: s.AGU.ModifyRange},
		Wrap:     s.Wrap,
		Strategy: s.Strategy,
	}
	if s.IsLoop() {
		j.Loop, j.Bindings = s.Loop, s.Bindings
	} else {
		j.Pattern = &api.Pattern{Stride: s.Pattern.Stride, Offsets: s.Pattern.Offsets}
	}
	return j
}

// ---- HTTP helpers ----

// postJSON POSTs v and decodes the response body into out (ignored
// when nil or undecodable — callers branch on status first). A nil
// error with status 0 never happens; transport failures return the
// error.
func (d *driver) postJSON(url string, v any, out any) (int, time.Duration, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := d.client.Post(url, "application/json", bytes.NewReader(body))
	elapsed := time.Since(start)
	if err != nil {
		return 0, elapsed, err
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out) //nolint:errcheck // status drives handling
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode, elapsed, nil
}

func (d *driver) getJSON(url string, out any) (int, error) {
	resp, err := d.client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out) //nolint:errcheck
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return resp.StatusCode, nil
}

func (d *driver) deleteJSON(url string, out any) (int, error) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		json.NewDecoder(resp.Body).Decode(out) //nolint:errcheck
	}
	return resp.StatusCode, nil
}

// ---- reference solves ----

// reference computes (and caches) the local ground-truth cost for a
// spec using the same two-phase allocator the server runs.
func (d *driver) reference(s workload.JobSpec) refVerdict {
	key := s.Key()
	d.refMu.Lock()
	if v, ok := d.refs[key]; ok {
		d.refMu.Unlock()
		return v
	}
	d.refMu.Unlock()

	v := d.solveReference(s)

	d.refMu.Lock()
	d.refs[key] = v
	d.refMu.Unlock()
	return v
}

func (d *driver) solveReference(s workload.JobSpec) refVerdict {
	ctx, cancel := context.WithTimeout(context.Background(), refSolveTimeout)
	defer cancel()
	// The generator only emits known names (an unknown one resolves to
	// nil, which core treats as greedy).
	strat, _, _ := merge.ByName(s.Strategy)
	cfg := core.Config{AGU: s.AGU, InterIteration: s.Wrap, Strategy: strat}
	if s.IsLoop() {
		prog, err := frontend.Parse(s.Loop, s.Bindings)
		if err != nil {
			return refVerdict{}
		}
		res, err := core.AllocateLoopContext(ctx, prog.Loop, cfg)
		if err != nil {
			return refVerdict{}
		}
		return refVerdict{cost: res.TotalCost, ok: true}
	}
	res, err := core.AllocateContext(ctx, s.Pattern, cfg)
	if err != nil {
		return refVerdict{}
	}
	return refVerdict{cost: res.Cost, ok: true}
}

// checkResults compares a successful server answer against the local
// reference: the echoed offsets must be the submitted offsets (the
// aliasing oracle — a cache bug hands back someone else's pattern) and the summed cost must match the reference solve.
func (d *driver) checkResults(class string, s workload.JobSpec, results []api.Alloc) (refChecked, refOK, echoOK bool) {
	echoOK = true
	if !s.IsLoop() {
		if len(results) != 1 || !equalInts(results[0].Offsets, s.Pattern.Offsets) {
			echoOK = false
		}
	}
	ref := d.reference(s)
	if !ref.ok {
		return false, false, echoOK
	}
	total := 0
	for _, r := range results {
		total += r.Cost
	}
	return true, total == ref.cost, echoOK
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- op handlers ----

// classifyFailure decides whether a 422 is benign: injected faults
// announce themselves, and failures the reference allocator reproduces
// are the workload's fault, not the server's.
func (d *driver) classifyFailure(class string, s workload.JobSpec, msg string) {
	if strings.Contains(msg, "injected") {
		d.outcome(class, "injected")
		return
	}
	if ref := d.reference(s); ref.ok {
		d.violate("%s: server failed a job the reference solves: %s (spec %s)", class, msg, s.Key())
		d.outcome(class, "failed-divergent")
		return
	}
	d.outcome(class, "failed-benign")
}

func (d *driver) doSync(s workload.JobSpec) {
	var resp api.JobResponse
	status, elapsed, err := d.postJSON(d.cfg.base+"/v1/allocate", toJob(s), &resp)
	if err != nil {
		d.outcome("sync", "conn")
		return
	}
	d.latency("sync", elapsed)
	switch status {
	case http.StatusOK:
		refChecked, refOK, echoOK := d.checkResults("sync", s, resp.Results)
		if !echoOK {
			d.violate("sync: response echoes foreign offsets (aliasing) for spec %s", s.Key())
		}
		if refChecked && !refOK {
			d.violate("sync: cost diverges from reference for spec %s", s.Key())
		}
		d.outcome("sync", "ok")
	case http.StatusUnprocessableEntity:
		d.classifyFailure("sync", s, resp.Error)
	case http.StatusGatewayTimeout:
		d.outcome("sync", "timeout")
	case http.StatusServiceUnavailable:
		// Draining server, or a cluster gateway with every replica for
		// the key momentarily down: capacity loss, not wrongness.
		d.outcome("sync", "unavail")
	default:
		if status >= 500 {
			d.violate("sync: /v1/allocate answered %d", status)
		}
		d.outcome("sync", fmt.Sprintf("http%d", status))
	}
}

func (d *driver) doBatch(specs []workload.JobSpec) {
	body := api.BatchRequest{Jobs: make([]api.Job, len(specs))}
	for i, s := range specs {
		body.Jobs[i] = toJob(s)
	}
	var resp api.BatchResponse
	status, elapsed, err := d.postJSON(d.cfg.base+"/v1/batch", body, &resp)
	if err != nil {
		d.outcome("batch", "conn")
		return
	}
	d.latency("batch", elapsed)
	if status != http.StatusOK {
		if status == http.StatusServiceUnavailable {
			d.outcome("batch", "unavail")
			return
		}
		if status >= 500 {
			d.violate("batch: /v1/batch answered %d", status)
		}
		d.outcome("batch", fmt.Sprintf("http%d", status))
		return
	}
	if len(resp.Results) != len(specs) {
		d.violate("batch: %d jobs in, %d results out", len(specs), len(resp.Results))
		d.outcome("batch", "shape")
		return
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			d.classifyFailure("batch", specs[i], r.Error)
			continue
		}
		refChecked, refOK, echoOK := d.checkResults("batch", specs[i], r.Results)
		if !echoOK {
			d.violate("batch: job %d echoes foreign offsets (aliasing) for spec %s", i, specs[i].Key())
		}
		if refChecked && !refOK {
			d.violate("batch: job %d cost diverges from reference for spec %s", i, specs[i].Key())
		}
	}
	d.outcome("batch", "ok")
}

// doAsync submits op.Jobs (single or burst), optionally cancels, and
// polls every accepted ID to a terminal observation.
func (d *driver) doAsync(op workload.Op, cancel bool, pollDeadline time.Time) {
	class := op.Kind.String()
	body := api.Submit{Priority: op.Priority}
	if len(op.Jobs) == 1 {
		body.Job = toJob(op.Jobs[0])
	} else {
		body.Jobs = make([]api.Job, len(op.Jobs))
		for i, s := range op.Jobs {
			body.Jobs[i] = toJob(s)
		}
	}
	var resp api.SubmitResponse
	submitAt := time.Now()
	status, elapsed, err := d.postJSON(d.cfg.base+"/v1/jobs", body, &resp)
	if err != nil {
		d.outcome(class, "conn")
		return
	}
	d.latency("submit", elapsed)
	switch status {
	case http.StatusAccepted:
		// fall through to polling
	case http.StatusTooManyRequests:
		d.outcome(class, "429")
		return
	case http.StatusServiceUnavailable:
		// A draining server refuses new submissions with 503 +
		// Retry-After instead of accepting work it will never run; no
		// 202 was issued, so nothing is owed. Benign during restarts.
		d.outcome(class, "draining")
		return
	default:
		if status >= 500 {
			d.violate("%s: /v1/jobs answered %d", class, status)
		}
		d.outcome(class, fmt.Sprintf("http%d", status))
		return
	}
	if len(resp.IDs) != len(op.Jobs) {
		d.violate("%s: submitted %d jobs, got %d IDs", class, len(op.Jobs), len(resp.IDs))
		d.outcome(class, "shape")
		return
	}
	d.outcome(class, "accepted")

	if cancel {
		// A deterministic short stagger races the cancel against
		// dispatch: sometimes the job is still queued, sometimes
		// running, sometimes already done (409 — fine).
		time.Sleep(time.Duration(len(resp.IDs[0])%4) * 8 * time.Millisecond)
		st, err := d.deleteJSON(d.cfg.base+"/v1/jobs/"+resp.IDs[0], nil)
		switch {
		case err != nil:
			d.outcome(class, "cancel-conn")
		case st == http.StatusOK:
			d.outcome(class, "cancel-ok")
		case st == http.StatusConflict:
			d.outcome(class, "cancel-late")
		case st == http.StatusNotFound || st == http.StatusGone:
			d.outcome(class, "cancel-gone")
		case st == http.StatusServiceUnavailable:
			// Owning node unreachable right now (cluster mark-down or
			// drain); the job simply runs to completion uncanceled.
			d.outcome(class, "cancel-unavail")
		default:
			if st >= 500 {
				d.violate("%s: DELETE answered %d", class, st)
			}
			d.outcome(class, fmt.Sprintf("cancel-http%d", st))
		}
	}

	for i, id := range resp.IDs {
		d.record(d.pollJob(id, class, op.Jobs[i], submitAt, pollDeadline))
	}
}

// pollJob polls one accepted job until a terminal observation or the
// deadline. Connection errors are retried — the server may be mid
// restart — and a 404 for an ID we hold a 202 for is recorded as lost
// (the oracle excuses it if a restart window explains it).
func (d *driver) pollJob(id, class string, s workload.JobSpec, submitAt, deadline time.Time) jobRecord {
	rec := jobRecord{ID: id, Class: class, SubmitMs: submitAt.UnixMilli()}
	interval := 25 * time.Millisecond
	for {
		if time.Now().After(deadline) {
			rec.State, rec.ResolveMs = "lost", time.Now().UnixMilli()
			rec.Err = "pending at poll deadline"
			return rec
		}
		var st api.JobStatus
		status, err := d.getJSON(d.cfg.base+"/v1/jobs/"+id, &st)
		now := time.Now()
		switch {
		case err != nil:
			d.outcome(class, "poll-conn")
		case status == http.StatusOK:
			switch st.State {
			case "done":
				rec.State, rec.ResolveMs = "done", now.UnixMilli()
				if st.Result != nil {
					rec.RefChecked, rec.RefOK, rec.EchoOK = d.checkResults(class, s, st.Result.Results)
				}
				return rec
			case "failed":
				rec.State, rec.ResolveMs, rec.Err = "failed", now.UnixMilli(), st.Error
				d.classifyFailure(class, s, st.Error)
				return rec
			case "timeout":
				rec.State, rec.ResolveMs = "timeout", now.UnixMilli()
				return rec
			case "canceled":
				rec.State, rec.ResolveMs, rec.Err = "canceled", now.UnixMilli(), st.Error
				return rec
			}
			// queued or running: keep polling
		case status == http.StatusGone:
			// The job finished and its result expired before we read it
			// (TTL acceleration makes this common): resolved, unverifiable.
			rec.State, rec.ResolveMs = "evicted", now.UnixMilli()
			return rec
		case status == http.StatusNotFound:
			// We hold a 202 for this ID: the server forgot it. Legal only
			// across a restart; the oracle checks.
			rec.State, rec.ResolveMs = "lost", now.UnixMilli()
			rec.Err = "404 for an accepted ID"
			return rec
		case status == http.StatusServiceUnavailable:
			// The owning node is momentarily unreachable (draining, or a
			// cluster gateway has it marked down). Keep polling: the
			// state may come back; if it never does, the deadline
			// records the job as lost and the oracle rules on it.
			d.outcome(class, "poll-unavail")
		default:
			if status >= 500 {
				d.violate("%s: poll answered %d for %s", class, status, id)
				rec.State, rec.ResolveMs = "lost", now.UnixMilli()
				rec.Err = fmt.Sprintf("poll http %d", status)
				return rec
			}
		}
		time.Sleep(interval)
		if interval < 200*time.Millisecond {
			interval += 25 * time.Millisecond
		}
	}
}
