package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/jobs"
	"dspaddr/internal/obs"
)

// fakeNode is a scriptable stand-in for one rcaserve process.
type fakeNode struct {
	name string
	srv  *httptest.Server

	mu        sync.Mutex
	allocates int
	submits   int
	lastReqID string
	// handler overrides the default scripted behavior when non-nil.
	handler func(w http.ResponseWriter, r *http.Request) bool
}

func newFakeNode(name string) *fakeNode {
	n := &fakeNode{name: name}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.lastReqID = r.Header.Get("X-Request-Id")
		h := n.handler
		n.mu.Unlock()
		if h != nil && h(w, r) {
			return
		}
		switch {
		case r.URL.Path == "/healthz":
			fmt.Fprintf(w, "ok\nrcaserve test\nnode %s\n", name)
		case r.URL.Path == "/v1/allocate":
			n.mu.Lock()
			n.allocates++
			n.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"results":[],"node":%q}`, name)
		case r.URL.Path == "/v1/batch":
			var in struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			body, _ := io.ReadAll(r.Body)
			json.Unmarshal(body, &in) //nolint:errcheck // scripted test node
			results := make([]string, len(in.Jobs))
			for i := range results {
				results[i] = fmt.Sprintf(`{"node":%q}`, name)
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"results":[%s],"elapsedMicros":1}`, strings.Join(results, ","))
		case r.URL.Path == "/v1/jobs" && r.Method == http.MethodPost:
			n.mu.Lock()
			n.submits++
			n.mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"id":"j-%s-abcd0123-00000001"}`, name)
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"id":%q,"state":"done","node":%q}`, id, name)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	return n
}

func (n *fakeNode) counts() (allocates, submits int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.allocates, n.submits
}

func (n *fakeNode) requestID() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lastReqID
}

// newTestGateway stands a gateway in front of the fake nodes. Probes
// are slowed to a crawl so tests control liveness by hand.
func newTestGateway(t testing.TB, nodes ...*fakeNode) (*Gateway, *httptest.Server) {
	t.Helper()
	members := make([]Member, len(nodes))
	for i, n := range nodes {
		members[i] = Member{Name: n.name, URL: n.srv.URL}
	}
	fleet, err := NewFleet(members, FleetOptions{
		ProbeInterval: time.Hour, // hand-driven liveness
		FailThreshold: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := New(Options{Fleet: fleet, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { srv.Close(); gw.Close() })
	return gw, srv
}

const allocBody = `{"pattern":{"offsets":[1,0,2,-1,1,0,-2]},"agu":{"registers":1,"modifyRange":1}}`

// TestGatewayAllocateStickiness asserts one campaign always lands on
// one node: 20 identical requests, exactly one node sees them all.
func TestGatewayAllocateStickiness(t *testing.T) {
	a, b, c := newFakeNode("n1"), newFakeNode("n2"), newFakeNode("n3")
	defer a.srv.Close()
	defer b.srv.Close()
	defer c.srv.Close()
	_, srv := newTestGateway(t, a, b, c)

	for i := 0; i < 20; i++ {
		resp, err := http.Post(srv.URL+"/v1/allocate", "application/json", strings.NewReader(allocBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("allocate %d: status %d", i, resp.StatusCode)
		}
	}
	counts := []int{}
	hot := 0
	for _, n := range []*fakeNode{a, b, c} {
		al, _ := n.counts()
		counts = append(counts, al)
		if al > 0 {
			hot++
		}
	}
	if hot != 1 {
		t.Fatalf("identical campaign spread over %d nodes: %v", hot, counts)
	}
}

// TestGatewayRequestIDForwarded asserts the trace-ID satellite: a
// client-supplied X-Request-Id rides the hop to the node verbatim and
// is echoed back; a missing one is generated and still forwarded.
func TestGatewayRequestIDForwarded(t *testing.T) {
	a := newFakeNode("n1")
	defer a.srv.Close()
	_, srv := newTestGateway(t, a)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/allocate", strings.NewReader(allocBody))
	req.Header.Set("X-Request-Id", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	if got := a.requestID(); got != "trace-me-42" {
		t.Fatalf("node saw X-Request-Id %q, want trace-me-42", got)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-me-42" {
		t.Fatalf("client echo %q, want trace-me-42", got)
	}

	resp, err = http.Post(srv.URL+"/v1/allocate", "application/json", strings.NewReader(allocBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	gen := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(gen, "g-") {
		t.Fatalf("generated ID %q should carry the gateway prefix", gen)
	}
	if a.requestID() != gen {
		t.Fatalf("node saw %q, gateway echoed %q", a.requestID(), gen)
	}
}

// TestGatewayRetryAfterPassthrough asserts back-pressure reaches the
// client unchanged: a node's 503 (draining) with its own Retry-After
// is passed through byte-identical — never replaced by a gateway
// value — after exactly one attempt, on submit and on allocate alike.
func TestGatewayRetryAfterPassthrough(t *testing.T) {
	var hits atomic.Int32
	mk := func(name string) *fakeNode {
		n := newFakeNode(name)
		n.handler = func(w http.ResponseWriter, r *http.Request) bool {
			if r.Method != http.MethodPost || (r.URL.Path != "/v1/jobs" && r.URL.Path != "/v1/allocate") {
				return false
			}
			hits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"server is draining; retry shortly"}`)
			return true
		}
		return n
	}
	a, b := mk("n1"), mk("n2")
	defer a.srv.Close()
	defer b.srv.Close()
	_, srv := newTestGateway(t, a, b)

	for _, path := range []string{"/v1/jobs", "/v1/allocate"} {
		hits.Store(0)
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(allocBody))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503", path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "7" {
			t.Fatalf("%s: Retry-After %q, want the node's own \"7\"", path, ra)
		}
		if !strings.Contains(string(body), "draining") {
			t.Fatalf("%s: node body not passed through: %s", path, body)
		}
		if n := hits.Load(); n != 1 {
			t.Fatalf("%s: %d attempts, want exactly 1", path, n)
		}
	}
}

// TestGatewayAllReplicasDown asserts the fleet-level 503: with every
// member down the gateway answers its own 503 + Retry-After 1 for
// allocate, submit and by-ID lookups.
func TestGatewayAllReplicasDown(t *testing.T) {
	a := newFakeNode("n1")
	defer a.srv.Close()
	gw, srv := newTestGateway(t, a)
	gw.fleet.Stop() // halt probes so hand-set liveness sticks
	gw.fleet.Member("n1").up.Store(false)

	for _, probe := range []struct {
		method, path, body string
	}{
		{http.MethodPost, "/v1/allocate", allocBody},
		{http.MethodPost, "/v1/jobs", allocBody},
		{http.MethodGet, "/v1/jobs/j-n1-abcd0123-00000001", ""},
		{http.MethodGet, "/v1/jobs", ""},
	} {
		var rd io.Reader
		if probe.body != "" {
			rd = strings.NewReader(probe.body)
		}
		req, _ := http.NewRequest(probe.method, srv.URL+probe.path, rd)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s: status %d, want 503", probe.method, probe.path, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("%s %s: Retry-After %q, want 1", probe.method, probe.path, ra)
		}
	}
}

// TestGatewayIdempotentRetry asserts what a dead-but-up owner costs a
// client that retries its (idempotent) allocates: each forward to it
// answers 503 + Retry-After 1 and counts as a health failure, so after
// at most FailThreshold such answers the node is marked down and its
// keys rehash to the next replica.
func TestGatewayIdempotentRetry(t *testing.T) {
	a, b, c := newFakeNode("n1"), newFakeNode("n2"), newFakeNode("n3")
	defer b.srv.Close()
	defer c.srv.Close()
	a.srv.Close() // n1 is dead but still marked up

	gw, srv := newTestGateway(t, a, b, c)
	threshold := gw.fleet.opts.FailThreshold

	// Distinct campaigns, the first owned by n1; each client retries
	// until it gets an answer.
	bodies := []string{ownedAllocate(t, gw.fleet, "n1")}
	for i := 0; i < 11; i++ {
		bodies = append(bodies, fmt.Sprintf(`{"pattern":{"offsets":[%d,1,3]},"agu":{"registers":1,"modifyRange":1}}`, i))
	}
	unavailable := 0
	for _, body := range bodies {
		status := 0
		for attempt := 0; attempt <= threshold && status != http.StatusOK; attempt++ {
			resp, err := http.Post(srv.URL+"/v1/allocate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
			resp.Body.Close()
			status = resp.StatusCode
			if status == http.StatusServiceUnavailable {
				unavailable++
				if ra := resp.Header.Get("Retry-After"); ra != "1" {
					t.Fatalf("gateway 503 Retry-After %q, want 1", ra)
				}
			}
		}
		if status != http.StatusOK {
			t.Fatalf("allocate never succeeded past the dead node (last status %d)", status)
		}
	}
	if unavailable == 0 || unavailable > threshold {
		t.Fatalf("dead owner cost %d 503s, want 1..%d", unavailable, threshold)
	}
	if gw.fleet.Member("n1").Up() {
		t.Fatal("dead node still marked up")
	}
}

// TestGatewayJobByIDTagRouting asserts ID ownership: an ID tagged n2
// reaches n2 whatever the ring thinks, an untagged or unknown-tag ID
// is 404, and a down owner is 503 (never a lying 404).
func TestGatewayJobByIDTagRouting(t *testing.T) {
	a, b := newFakeNode("n1"), newFakeNode("n2")
	defer a.srv.Close()
	defer b.srv.Close()
	gw, srv := newTestGateway(t, a, b)

	resp, err := http.Get(srv.URL + "/v1/jobs/j-n2-abcd0123-00000007")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"node":"n2"`) {
		t.Fatalf("tagged lookup: status %d body %s", resp.StatusCode, body)
	}
	// An ID holding bytes a path must escape reaches its owner as the
	// client sent it.
	for _, raw := range []string{"j-n2-a%25b-00000007", "j-n2-a%0Ab-00000007", "j-n2-a%20b-00000007"} {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + raw)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		id, _ := url.PathUnescape(raw)
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), fmt.Sprintf(`{"id":%q,`, id)) {
			t.Fatalf("lookup %s: status %d body %s", raw, resp.StatusCode, body)
		}
	}

	for _, id := range []string{"j-abcd0123-00000007", "j-nX-abcd0123-00000007"} {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("lookup %s: status %d, want 404", id, resp.StatusCode)
		}
	}

	gw.fleet.Stop() // halt probes so hand-set liveness sticks
	gw.fleet.Member("n2").up.Store(false)
	resp, err = http.Get(srv.URL + "/v1/jobs/j-n2-abcd0123-00000007")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("down owner: status %d, want 503", resp.StatusCode)
	}
}

// TestGatewayBatchStitch asserts the split/stitch path: a mixed batch
// answers 200 with one result per job in request order, each from the
// node its key routes to.
func TestGatewayBatchStitch(t *testing.T) {
	a, b, c := newFakeNode("n1"), newFakeNode("n2"), newFakeNode("n3")
	defer a.srv.Close()
	defer b.srv.Close()
	defer c.srv.Close()
	gw, srv := newTestGateway(t, a, b, c)

	jobs := make([]string, 9)
	for i := range jobs {
		jobs[i] = fmt.Sprintf(`{"pattern":{"offsets":[%d,1]},"agu":{"registers":1,"modifyRange":1}}`, i)
	}
	body := `{"jobs":[` + strings.Join(jobs, ",") + `]}`
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, raw)
	}
	var out struct {
		Results []struct {
			Node string `json:"node"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(out.Results), len(jobs))
	}
	// Every result names the node its job's key routes to.
	for i, res := range out.Results {
		var job api.Job
		if err := json.Unmarshal([]byte(jobs[i]), &job); err != nil {
			t.Fatal(err)
		}
		want := gw.fleet.Replicas(routeKeyOf(&job))[0].Name
		if res.Node != want {
			t.Fatalf("job %d answered by %s, ring owner is %s", i, res.Node, want)
		}
	}
}

// TestGatewayReportFlag: the gateway's strict decoders accept a job's
// "report": true on every job route, and a batch split across nodes
// re-encodes it into every sub-batch.
func TestGatewayReportFlag(t *testing.T) {
	nodes := []*fakeNode{newFakeNode("n1"), newFakeNode("n2"), newFakeNode("n3")}
	var mu sync.Mutex
	var forwarded []api.Job
	subBatches := 0
	for _, n := range nodes {
		defer n.srv.Close()
		n.handler = func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != "/v1/batch" {
				return false
			}
			var sub api.BatchRequest
			if _, err := api.DecodeBody(r, &sub); err != nil {
				t.Errorf("node refused a sub-batch: %v", err)
			}
			mu.Lock()
			forwarded = append(forwarded, sub.Jobs...)
			subBatches++
			mu.Unlock()
			results := strings.TrimSuffix(strings.Repeat(`{},`, len(sub.Jobs)), ",")
			fmt.Fprintf(w, `{"results":[%s],"elapsedMicros":1}`, results)
			return true
		}
	}
	_, srv := newTestGateway(t, nodes...)

	job := func(i int) string {
		return fmt.Sprintf(`{"pattern":{"offsets":[%d,1]},"agu":{"registers":1,"modifyRange":1},"report":true}`, i)
	}
	jobs := make([]string, 9)
	for i := range jobs {
		jobs[i] = job(i)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/allocate", job(0)},
		{"/v1/jobs", job(0)},
		{"/v1/jobs", `{"jobs":[` + job(0) + `,` + job(1) + `]}`},
		{"/v1/batch", `{"jobs":[` + strings.Join(jobs, ",") + `]}`},
	} {
		resp, err := http.Post(srv.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Errorf("%s %s: status %d body %s", tc.path, tc.body, resp.StatusCode, raw)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if subBatches < 2 || len(forwarded) != len(jobs) {
		t.Fatalf("batch reached the nodes as %d sub-batches of %d jobs in all; want a split of %d", subBatches, len(forwarded), len(jobs))
	}
	for i, j := range forwarded {
		if !j.Report {
			t.Errorf("forwarded job %d lost its report flag: %+v", i, j)
		}
	}
}

// TestGatewayStatsAggregation asserts /v1/stats sums the fleet and
// nests each node's raw stats.
func TestGatewayStatsAggregation(t *testing.T) {
	mk := func(name string, jobs int) *fakeNode {
		n := newFakeNode(name)
		n.handler = func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/v1/stats" {
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintf(w, `{"jobs":%d,"cacheHits":10,"cacheMisses":10,"asyncJobs":{"submitted":%d,"done":1}}`, jobs, jobs)
				return true
			}
			return false
		}
		return n
	}
	a, b := mk("n1", 3), mk("n2", 5)
	defer a.srv.Close()
	defer b.srv.Close()
	_, srv := newTestGateway(t, a, b)

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Fleet struct {
			Nodes          int     `json:"nodes"`
			UpNodes        int     `json:"upNodes"`
			Jobs           uint64  `json:"jobs"`
			HitRate        float64 `json:"hitRate"`
			AsyncSubmitted uint64  `json:"asyncSubmitted"`
		} `json:"fleet"`
		Nodes   map[string]json.RawMessage `json:"nodes"`
		Gateway struct {
			Version string `json:"version"`
		} `json:"gateway"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad stats body: %v\n%s", err, raw)
	}
	if out.Fleet.Nodes != 2 || out.Fleet.UpNodes != 2 || out.Fleet.Jobs != 8 || out.Fleet.AsyncSubmitted != 8 {
		t.Fatalf("fleet sums wrong: %+v", out.Fleet)
	}
	if out.Fleet.HitRate != 0.5 {
		t.Fatalf("hitRate %v, want 0.5", out.Fleet.HitRate)
	}
	if len(out.Nodes) != 2 || out.Gateway.Version != "test" {
		t.Fatalf("stats shape wrong: %s", raw)
	}
}

// TestGatewayStatsJobIdentity asserts the fleet's engine counters add
// up like each node's: jobs = cacheHits + cacheMisses + errors +
// timeouts + canceled, with canceled jobs (a sync client that hung up
// mid-solve) on both nodes.
func TestGatewayStatsJobIdentity(t *testing.T) {
	mk := func(name string, hits, misses, errs, timeouts, canceled uint64) *fakeNode {
		n := newFakeNode(name)
		n.handler = func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path != "/v1/stats" {
				return false
			}
			jobs := hits + misses + errs + timeouts + canceled
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"jobs":%d,"cacheHits":%d,"cacheMisses":%d,"errors":%d,"timeouts":%d,"canceled":%d}`,
				jobs, hits, misses, errs, timeouts, canceled)
			return true
		}
		return n
	}
	a, b := mk("n1", 7, 5, 1, 2, 3), mk("n2", 4, 6, 0, 1, 2)
	defer a.srv.Close()
	defer b.srv.Close()
	_, srv := newTestGateway(t, a, b)

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Fleet struct {
			Jobs        uint64 `json:"jobs"`
			CacheHits   uint64 `json:"cacheHits"`
			CacheMisses uint64 `json:"cacheMisses"`
			Errors      uint64 `json:"errors"`
			Timeouts    uint64 `json:"timeouts"`
			Canceled    uint64 `json:"canceled"`
		} `json:"fleet"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad stats body: %v\n%s", err, raw)
	}
	f := out.Fleet
	if f.Jobs != 31 || f.Canceled != 5 {
		t.Fatalf("fleet jobs %d canceled %d, want 31 and 5: %s", f.Jobs, f.Canceled, raw)
	}
	if sum := f.CacheHits + f.CacheMisses + f.Errors + f.Timeouts + f.Canceled; sum != f.Jobs {
		t.Fatalf("fleet jobs %d != hits+misses+errors+timeouts+canceled %d: %s", f.Jobs, sum, raw)
	}
}

// TestGatewayMetricsAggregation asserts /metrics carries the gateway
// families plus the node families aggregated across the fleet:
// counters and histogram samples summed, gauges once per node with a
// node label (a summed build_info or uptime would mean nothing).
func TestGatewayMetricsAggregation(t *testing.T) {
	mk := func(name string, reqs int) *fakeNode {
		n := newFakeNode(name)
		n.handler = func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/metrics" {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				fmt.Fprintf(w, "# HELP rcaserve_http_requests_total Total HTTP requests.\n# TYPE rcaserve_http_requests_total counter\nrcaserve_http_requests_total %d\n", reqs)
				fmt.Fprintf(w, "# HELP rcaserve_queue_depth Queue depth.\n# TYPE rcaserve_queue_depth gauge\nrcaserve_queue_depth{shard=\"0\"} %d\n", reqs)
				fmt.Fprintf(w, "# HELP rcaserve_build_info Build identity.\n# TYPE rcaserve_build_info gauge\nrcaserve_build_info{version=\"v1\"} 1\n")
				fmt.Fprintf(w, "# HELP rcaserve_uptime_seconds Process uptime.\n# TYPE rcaserve_uptime_seconds gauge\nrcaserve_uptime_seconds %d.5\n", reqs*10)
				fmt.Fprintf(w, "# HELP rcaserve_solve_seconds Solve latency.\n# TYPE rcaserve_solve_seconds histogram\n"+
					"rcaserve_solve_seconds_bucket{le=\"0.1\"} %d\nrcaserve_solve_seconds_bucket{le=\"+Inf\"} %d\n"+
					"rcaserve_solve_seconds_sum %d\nrcaserve_solve_seconds_count %d\n", reqs-1, reqs, reqs, reqs)
				return true
			}
			return false
		}
		return n
	}
	a, b := mk("n1", 3), mk("n2", 4)
	defer a.srv.Close()
	defer b.srv.Close()
	_, srv := newTestGateway(t, a, b)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, fam := range []string{"rcagate_nodes_up 2", "rcagate_node_up{node=\"n1\"} 1", "rcagate_http_route_requests_total"} {
		if !strings.Contains(text, fam) {
			t.Fatalf("missing gateway family %q:\n%s", fam, text)
		}
	}
	fams, err := obs.ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("aggregate does not parse: %v\n%s", err, text)
	}
	// samples maps "name{sorted labels}" to value for one family.
	samples := func(family string) map[string]float64 {
		f := fams[family]
		if f == nil {
			t.Fatalf("family %s missing:\n%s", family, text)
		}
		out := map[string]float64{}
		for _, s := range f.Samples {
			key := s.Name + "{" + renderSortedLabels(s.Labels) + "}"
			if _, dup := out[key]; dup {
				t.Errorf("%s emitted twice", key)
			}
			out[key] = s.Value
		}
		return out
	}
	want := map[string]map[string]float64{
		"rcaserve_http_requests_total": {"rcaserve_http_requests_total{}": 7},
		"rcaserve_solve_seconds": {
			`rcaserve_solve_seconds_bucket{le="0.1"}`:  5,
			`rcaserve_solve_seconds_bucket{le="+Inf"}`: 7,
			"rcaserve_solve_seconds_sum{}":             7,
			"rcaserve_solve_seconds_count{}":           7,
		},
		"rcaserve_queue_depth": {
			`rcaserve_queue_depth{node="n1",shard="0"}`: 3,
			`rcaserve_queue_depth{node="n2",shard="0"}`: 4,
		},
		"rcaserve_build_info": {
			`rcaserve_build_info{node="n1",version="v1"}`: 1,
			`rcaserve_build_info{node="n2",version="v1"}`: 1,
		},
		"rcaserve_uptime_seconds": {
			`rcaserve_uptime_seconds{node="n1"}`: 30.5,
			`rcaserve_uptime_seconds{node="n2"}`: 40.5,
		},
	}
	for family, wantSamples := range want {
		got := samples(family)
		if len(got) != len(wantSamples) {
			t.Errorf("%s: got samples %v, want %v", family, got, wantSamples)
			continue
		}
		for key, v := range wantSamples {
			if got[key] != v {
				t.Errorf("%s = %v, want %v (all: %v)", key, got[key], v, got)
			}
		}
	}
}

// TestGatewayListMerge asserts GET /v1/jobs merges node pages
// newest-first and sums totals.
func TestGatewayListMerge(t *testing.T) {
	mk := func(name string, stamps ...string) *fakeNode {
		n := newFakeNode(name)
		n.handler = func(w http.ResponseWriter, r *http.Request) bool {
			if r.URL.Path == "/v1/jobs" && r.Method == http.MethodGet {
				entries := make([]string, len(stamps))
				for i, s := range stamps {
					entries[i] = fmt.Sprintf(`{"id":"j-%s-abcd0123-%08d","state":"done","submittedAt":%q}`, name, i, s)
				}
				w.Header().Set("Content-Type", "application/json")
				fmt.Fprintf(w, `{"jobs":[%s],"total":%d,"offset":0,"limit":100}`, strings.Join(entries, ","), len(stamps))
				return true
			}
			return false
		}
		return n
	}
	// n1's jobs are newest and oldest; n2's sits in between.
	a := mk("n1", "2026-08-07T10:00:03Z", "2026-08-07T10:00:01Z")
	b := mk("n2", "2026-08-07T10:00:02Z")
	defer a.srv.Close()
	defer b.srv.Close()
	_, srv := newTestGateway(t, a, b)

	resp, err := http.Get(srv.URL + "/v1/jobs?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
		Total int `json:"total"`
		Limit int `json:"limit"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad list body: %v\n%s", err, raw)
	}
	if out.Total != 3 || out.Limit != 2 || len(out.Jobs) != 2 {
		t.Fatalf("merged window wrong: %s", raw)
	}
	if !strings.HasPrefix(out.Jobs[0].ID, "j-n1-") || !strings.HasPrefix(out.Jobs[1].ID, "j-n2-") {
		t.Fatalf("merge order wrong: %s", raw)
	}
}

// TestGatewayListStateEscaped asserts the fan-out list query carries
// ?state= to the nodes exactly as the client sent it, so a state a
// node would reject is rejected through the gateway too, never
// silently dropped into an unfiltered listing.
func TestGatewayListStateEscaped(t *testing.T) {
	n := newFakeNode("n1")
	defer n.srv.Close()
	var seen []string
	n.handler = func(w http.ResponseWriter, r *http.Request) bool {
		if r.URL.Path != "/v1/jobs" || r.Method != http.MethodGet {
			return false
		}
		// Answer as a node does: an unknown state is a 400.
		state := jobs.State(r.URL.Query().Get("state"))
		n.mu.Lock()
		seen = append(seen, string(state))
		n.mu.Unlock()
		if state != "" && !jobs.ValidState(state) {
			api.WriteError(w, http.StatusBadRequest, "unknown state %q", state)
			return true
		}
		api.WriteJSON(w, http.StatusOK, api.ListResponse{Jobs: []api.JobStatus{}, Limit: 100})
		return true
	}
	_, srv := newTestGateway(t, n)

	for _, tc := range []struct {
		query     string
		wantState string
		want      int
	}{
		{"state=%25", "%", http.StatusBadRequest},
		{"state=done%26state%3Dqueued", "done&state=queued", http.StatusBadRequest},
		{"state=done", "done", http.StatusOK},
	} {
		resp, err := http.Get(srv.URL + "/v1/jobs?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
		resp.Body.Close()
		n.mu.Lock()
		got := seen[len(seen)-1]
		n.mu.Unlock()
		if resp.StatusCode != tc.want || got != tc.wantState {
			t.Errorf("?%s: status %d, node saw state %q; want %d and %q", tc.query, resp.StatusCode, got, tc.want, tc.wantState)
		}
	}
}

// TestGatewayHealthzAndCluster smoke-tests the introspection surface.
func TestGatewayHealthzAndCluster(t *testing.T) {
	a, b := newFakeNode("n1"), newFakeNode("n2")
	defer a.srv.Close()
	defer b.srv.Close()
	gw, srv := newTestGateway(t, a, b)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "nodes 2/2") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	gw.fleet.Stop() // halt probes so hand-set liveness sticks
	gw.fleet.Member("n1").up.Store(false)
	gw.fleet.Member("n2").up.Store(false)
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down healthz: %d, want 503", resp.StatusCode)
	}
	gw.fleet.Member("n1").up.Store(true)

	resp, err = http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out clusterJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Nodes) != 2 || out.RingPoints != 2*DefaultVirtualNodes {
		t.Fatalf("cluster introspection wrong: %s", raw)
	}
	var sawDown bool
	for _, n := range out.Nodes {
		if n.Name == "n2" && !n.Up && n.DownSince == nil {
			// down via direct store (no transition) — DownSince may be
			// absent; liveness is what matters here.
			sawDown = true
		}
	}
	if !sawDown {
		t.Fatalf("n2 should report down: %s", raw)
	}
}

// TestRouteKeyLoopJobs asserts loop-source submissions route
// deterministically and bindings participate in the key.
func TestRouteKeyLoopJobs(t *testing.T) {
	j1 := api.Job{Loop: "for (i=0; i<N; i++) a[i] = a[i+1];", Bindings: map[string]int{"N": 64}}
	j2 := api.Job{Loop: "for (i=0; i<N; i++) a[i] = a[i+1];", Bindings: map[string]int{"N": 64}}
	if routeKeyOf(&j1) != routeKeyOf(&j2) {
		t.Fatal("identical loop jobs route apart")
	}
	j2.Bindings["N"] = 65
	if routeKeyOf(&j1) == routeKeyOf(&j2) {
		t.Fatal("binding change did not change the route")
	}
	// Default strategy spellings share a route.
	g1 := api.Job{Loop: "x", Strategy: ""}
	g2 := api.Job{Loop: "x", Strategy: "greedy"}
	if routeKeyOf(&g1) != routeKeyOf(&g2) {
		t.Fatal(`"" and "greedy" should share a route`)
	}
}
