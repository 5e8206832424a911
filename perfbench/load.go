package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the load generator's connection budget: at most two
// requests in flight, one per CPU of the box the rates were set on.
const conns = 2

// client is the single load-generating HTTP client of a run.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer into out.
func (c *client) do(method, path string, body []byte, out *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	out.Reset()
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// recorder collects one worker's outcomes; workers merge theirs after
// a phase, so the hot path takes no lock.
type recorder struct {
	lat, writes, reads []float64 // per HTTP op, ms
	at                 []float64 // per HTTP op: due time since the phase began, s
	late               []float64 // open loop: the generator's own lateness per op, ms
	t0                 time.Time // when the phase began
	sendSum            float64   // µs from actual send to answer, summed over HTTP ops
	attempted, failed  int       // HTTP ops
	fails              map[string]int
	okOps              int // logical ops whose every request succeeded and verified
	okAt               []time.Duration
	cost               int64   // served cost over verified jobs
	opCost             []int64 // open loop: served cost by op index
	buf                bytes.Buffer
}

func newRecorder() *recorder { return &recorder{fails: make(map[string]int)} }

func (r *recorder) merge(o *recorder) {
	r.lat = append(r.lat, o.lat...)
	r.at = append(r.at, o.at...)
	r.writes = append(r.writes, o.writes...)
	r.reads = append(r.reads, o.reads...)
	r.late = append(r.late, o.late...)
	r.sendSum += o.sendSum
	r.attempted += o.attempted
	r.failed += o.failed
	for k, v := range o.fails {
		r.fails[k] += v
	}
	r.okOps += o.okOps
	r.okAt = append(r.okAt, o.okAt...)
	r.cost += o.cost
}

func (r *recorder) fail(class string) {
	r.failed++
	r.fails[class]++
}

// runner executes ops against one entry point.
type runner struct {
	c *client
	// split sorts latencies into writes (POST and DELETE of the job
	// API) and reads (GET polls); only cluster-async has both.
	split bool
}

// request sends one HTTP op and records its latency, timed from due
// when set (the open loop's scheduled send time) and from the send
// otherwise. It returns the status, or 0 after recording a transport
// failure.
func (x *runner) request(rec *recorder, due time.Time, method, path string, body []byte) int {
	rec.attempted++
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	status, err := x.c.do(method, path, body, &rec.buf)
	end := time.Now()
	if err != nil {
		rec.fail("transport")
		return 0
	}
	ms := float64(end.Sub(due)) / 1e6
	rec.lat = append(rec.lat, ms)
	rec.at = append(rec.at, due.Sub(rec.t0).Seconds())
	rec.sendSum += float64(end.Sub(start)) / 1e3
	if x.split {
		if method == http.MethodGet {
			rec.reads = append(rec.reads, ms)
		} else {
			rec.writes = append(rec.writes, ms)
		}
	}
	return status
}

// expect records a failure for an unexpected status.
func expect(rec *recorder, status int, want ...int) bool {
	if status == 0 {
		return false // transport failure, already recorded
	}
	for _, w := range want {
		if status == w {
			return true
		}
	}
	rec.fail(fmt.Sprintf("status-%d", status))
	return false
}

type wireSubmit struct {
	IDs []string `json:"ids"`
}

type wireStatus struct {
	State  string         `json:"state"`
	Error  string         `json:"error"`
	Result *wireJobResult `json:"result"`
}

// pollLimit bounds how long one job may take to reach a terminal
// state before the op counts as failed; pollBackoff is the pause
// between polls of a job that is not done yet.
const (
	pollLimit   = 10 * time.Second
	pollBackoff = time.Millisecond
)

// run executes one logical op and reports whether every request of it
// succeeded and every served answer verified, with the served cost.
func (x *runner) run(rec *recorder, op *Op, due time.Time) (int64, bool) {
	switch op.Kind {
	case opAllocate, opBatch:
		path := "/v1/allocate"
		if op.Kind == opBatch {
			path = "/v1/batch"
		}
		if !expect(rec, x.request(rec, due, http.MethodPost, path, op.Body), http.StatusOK) {
			return 0, false
		}
		var results []wireJobResult
		if op.Kind == opBatch {
			var resp struct {
				Results []wireJobResult `json:"results"`
			}
			if err := json.Unmarshal(rec.buf.Bytes(), &resp); err != nil {
				rec.fail("decode")
				return 0, false
			}
			results = resp.Results
		} else {
			results = make([]wireJobResult, 1)
			if err := json.Unmarshal(rec.buf.Bytes(), &results[0]); err != nil {
				rec.fail("decode")
				return 0, false
			}
		}
		return verifyAll(rec, op.Jobs, results)
	default:
		if !expect(rec, x.request(rec, due, http.MethodPost, "/v1/jobs", op.Body), http.StatusAccepted) {
			return 0, false
		}
		var sub wireSubmit
		if err := json.Unmarshal(rec.buf.Bytes(), &sub); err != nil || len(sub.IDs) != len(op.Jobs) {
			rec.fail("decode")
			return 0, false
		}
		if op.Kind == opCancel {
			// 409 means the job finished before the cancel arrived.
			return 0, expect(rec, x.request(rec, time.Time{}, http.MethodDelete, "/v1/jobs/"+sub.IDs[0], nil), http.StatusOK, http.StatusConflict)
		}
		results := make([]wireJobResult, len(sub.IDs))
		for i, id := range sub.IDs {
			res, ok := x.poll(rec, id)
			if !ok {
				return 0, false
			}
			results[i] = *res
		}
		return verifyAll(rec, op.Jobs, results)
	}
}

// poll GETs a job until it is terminal and returns its result.
func (x *runner) poll(rec *recorder, id string) (*wireJobResult, bool) {
	limit := time.Now().Add(pollLimit)
	for time.Now().Before(limit) {
		if !expect(rec, x.request(rec, time.Time{}, http.MethodGet, "/v1/jobs/"+id, nil), http.StatusOK) {
			return nil, false
		}
		var st wireStatus
		if err := json.Unmarshal(rec.buf.Bytes(), &st); err != nil {
			rec.fail("decode")
			return nil, false
		}
		switch st.State {
		case "queued", "running":
			// Back off before asking again, as a client sharing the
			// service would; polling at once would make the number of
			// polls per job, and with it the load, follow the server's
			// speed.
			time.Sleep(pollBackoff)
			continue
		case "done":
			if st.Result == nil {
				rec.fail("verify")
				return nil, false
			}
			return st.Result, true
		default:
			rec.fail("job-" + st.State)
			return nil, false
		}
	}
	rec.fail("poll-timeout")
	return nil, false
}

// verifyAll checks every answer of an op and returns their summed
// cost.
func verifyAll(rec *recorder, jobs []*Job, results []wireJobResult) (int64, bool) {
	if len(results) != len(jobs) {
		rec.fail("verify")
		return 0, false
	}
	var cost int64
	for i, j := range jobs {
		c, err := verifyJob(j, &results[i])
		if err != nil {
			rec.fail("verify")
			return 0, false
		}
		cost += int64(c)
	}
	rec.cost += cost
	return cost, true
}

// runSeq runs ops one after another (warm-up passes).
func (x *runner) runSeq(ops []*Op) *recorder {
	rec := newRecorder()
	for _, op := range ops {
		if _, ok := x.run(rec, op, time.Time{}); ok {
			rec.okOps++
		}
	}
	return rec
}

// runOpen offers ops at a fixed rate: op i is due at start + i/rate
// whether or not earlier ops have finished, and each op's first
// request is timed from its due time, so a stall shows in the
// latency of every op queued behind it. Two workers take the next due
// op as soon as they are free, so at most two requests are in flight.
func (x *runner) runOpen(ops []*Op, rate float64) *recorder {
	start := time.Now().Add(20 * time.Millisecond)
	var next atomic.Int64
	opCost := make([]int64, len(ops)) // each index written by one worker
	recs := make([]*recorder, conns)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = newRecorder()
		recs[w].t0 = start
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			precisePacing()
			defer runtime.UnlockOSThread()
			for {
				free := time.Now()
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				sleepUntil(due)
				// The generator's own lateness: past the due time, or
				// past the moment this worker was free when both
				// connections were busy at the due time (that wait is
				// the server's, and shows in the op's latency).
				rec.late = append(rec.late, float64(time.Since(later(due, free)))/1e6)
				cost, ok := x.run(rec, ops[i], due)
				opCost[i] = cost
				if ok {
					rec.okOps++
				}
			}
		}(recs[w])
	}
	wg.Wait()
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	recs[0].opCost = opCost
	return recs[0]
}

// runClosed keeps both connections busy, each worker sending its next
// op when the previous one completes, until every op is done or limit
// has passed. It returns the recorder and the time the phase ran. A
// fixed amount of work, rather than a fixed time, keeps what the
// servers retain (results, WAL records) and so their memory the same
// whatever their speed.
func (x *runner) runClosed(ops []*Op, limit time.Duration) (*recorder, time.Duration) {
	start := time.Now()
	deadline := start.Add(limit)
	var next atomic.Int64
	recs := make([]*recorder, conns)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = newRecorder()
		recs[w].t0 = start
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				if _, ok := x.run(rec, ops[i], time.Time{}); ok {
					rec.okOps++
					rec.okAt = append(rec.okAt, time.Since(start))
				}
			}
		}(recs[w])
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, r := range recs[1:] {
		recs[0].merge(r)
	}
	return recs[0], elapsed
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// precisePacing locks the calling goroutine to its thread and sets the
// thread's timer slack to 1µs, so sleepUntil wakes within tens of
// microseconds; the runtime's own timers round sub-millisecond sleeps
// up to about a millisecond, which would swamp a 0.3ms request.
func precisePacing() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) //nolint:errcheck // best effort: lateness is measured either way
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: loop and sleep the rest
	}
}
