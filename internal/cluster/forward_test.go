package cluster

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestForwarder puts a forwarder in front of one node URL, with
// probes slowed to a crawl.
func newTestForwarder(t testing.TB, url string) (*forwarder, *Member) {
	t.Helper()
	fleet, err := NewFleet([]Member{{Name: "n1", URL: url}}, FleetOptions{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	fw := newForwarder(fleet, nil)
	t.Cleanup(fw.close)
	return fw, fleet.Member("n1")
}

// poolState reads a member pool's open and idle connection counts.
func poolState(fw *forwarder, m *Member) (open, idle int) {
	p := fw.pools[m]
	return len(p.slots), len(p.idle)
}

// checkInnocent fails when the node was charged a health failure or a
// failed breaker sample.
func checkInnocent(t *testing.T, m *Member) {
	t.Helper()
	if f := m.Fails(); f != 0 {
		t.Fatalf("node charged %d health failures", f)
	}
	if samples, failed := m.BreakerWindow(); failed != 0 {
		t.Fatalf("breaker fed %d/%d failures", failed, samples)
	}
}

// TestForwardConnectionCloseAndChunkedPassThrough: an answer that
// closes its connection and a chunked body larger than the read
// buffer both arrive byte for byte; the closed connection is not
// pooled, the chunked one is.
func TestForwardConnectionCloseAndChunkedPassThrough(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<10) // 16 KiB
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		switch r.URL.Path {
		case "/close":
			w.Header().Set("Connection", "close")
			w.WriteHeader(http.StatusTeapot)
			io.WriteString(w, "closing") //nolint:errcheck // test node
		case "/chunked":
			for chunk := big; len(chunk) > 0; chunk = chunk[3000:] {
				if len(chunk) < 3000 {
					w.Write(chunk) //nolint:errcheck // test node
					break
				}
				w.Write(chunk[:3000]) //nolint:errcheck // test node
				w.(http.Flusher).Flush()
			}
		}
	}))
	defer node.Close()
	fw, m := newTestForwarder(t, node.URL)

	resp, err := fw.do(context.Background(), m, http.MethodGet, "/close", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.status != http.StatusTeapot || string(resp.body) != "closing" || resp.header.Get("Content-Type") != "text/plain" {
		t.Fatalf("close answer: %d %q %v", resp.status, resp.body, resp.header)
	}
	if open, idle := poolState(fw, m); open != 0 || idle != 0 {
		t.Fatalf("after Connection: close: %d open, %d idle; want the connection closed", open, idle)
	}
	for i := 0; i < 2; i++ {
		resp, err = fw.do(context.Background(), m, http.MethodGet, "/chunked", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.status != http.StatusOK || !bytes.Equal(resp.body, big) {
			t.Fatalf("chunked answer: %d, %d bytes, want %d", resp.status, len(resp.body), len(big))
		}
		if open, idle := poolState(fw, m); open != 1 || idle != 1 {
			t.Fatalf("after a chunked answer: %d open, %d idle; want one pooled connection", open, idle)
		}
	}
	checkInnocent(t, m)
}

// TestForwardRequestHead: the hop sends the method, the target, Host,
// X-Request-Id, Content-Type and Content-Length, and drops a header
// value net/http would refuse to send.
func TestForwardRequestHead(t *testing.T) {
	type seen struct {
		method, uri, host, id, ctype string
		length                       int64
		body                         string
		headers                      int
	}
	got := make(chan seen, 1)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got <- seen{r.Method, r.RequestURI, r.Host, r.Header.Get("X-Request-Id"), r.Header.Get("Content-Type"),
			r.ContentLength, string(body), len(r.Header)}
	}))
	defer node.Close()
	fw, m := newTestForwarder(t, node.URL)
	host := strings.TrimPrefix(node.URL, "http://")

	hdr := http.Header{"X-Request-Id": {"abc"}, "Content-Type": {"application/json"}, "Accept": {"x"}}
	if _, err := fw.do(context.Background(), m, http.MethodPost, "/v1/jobs?x=%25", []byte(`{"a":1}`), hdr); err != nil {
		t.Fatal(err)
	}
	want := seen{"POST", "/v1/jobs?x=%25", host, "abc", "application/json", 7, `{"a":1}`, 3}
	if s := <-got; s != want {
		t.Fatalf("node saw %+v, want %+v", s, want)
	}
	hdr = http.Header{"X-Request-Id": {"a\x01b"}}
	if _, err := fw.do(context.Background(), m, http.MethodGet, "/v1/stats", nil, hdr); err != nil {
		t.Fatal(err)
	}
	want = seen{"GET", "/v1/stats", host, "", "", 0, "", 0}
	if s := <-got; s != want {
		t.Fatalf("node saw %+v, want %+v", s, want)
	}
	if _, err := fw.do(context.Background(), m, http.MethodGet, "/v1/jobs/a b", nil, nil); err == nil {
		t.Fatal("a target with a space was sent")
	}
	checkInnocent(t, m)
}

// TestForwardPoolCapsOpenConnections: more concurrent slow exchanges
// than maxConnsPerNode open at most maxConnsPerNode connections; the
// rest wait for one and all of them finish.
func TestForwardPoolCapsOpenConnections(t *testing.T) {
	var dialed, inHandler atomic.Int32
	release := make(chan struct{})
	node := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inHandler.Add(1)
		<-release
		io.WriteString(w, "ok") //nolint:errcheck // test node
	}))
	node.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	node.Start()
	defer node.Close()
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll() // before node.Close, which waits for the handlers
	fw, m := newTestForwarder(t, node.URL)

	const exchanges = maxConnsPerNode + 40
	var wg sync.WaitGroup
	errs := make(chan error, exchanges)
	for i := 0; i < exchanges; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := fw.do(context.Background(), m, http.MethodGet, "/slow", nil, nil)
			if err == nil && string(resp.body) != "ok" {
				err = io.ErrUnexpectedEOF
			}
			errs <- err
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for inHandler.Load() < maxConnsPerNode && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for an over-cap dial to show
	if n, open := dialed.Load(), len(fw.pools[m].slots); n != maxConnsPerNode || open != maxConnsPerNode || inHandler.Load() != maxConnsPerNode {
		t.Fatalf("%d connections dialed, %d exchanges at the node, pool counts %d open; want %d of each",
			n, inHandler.Load(), open, maxConnsPerNode)
	}
	releaseAll()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := dialed.Load(); n != maxConnsPerNode {
		t.Fatalf("%d connections dialed in all, want %d", n, maxConnsPerNode)
	}
	if open, idle := poolState(fw, m); open != maxIdlePerNode || idle != maxIdlePerNode {
		t.Fatalf("after the burst: %d open, %d idle; want %d of each", open, idle, maxIdlePerNode)
	}
	checkInnocent(t, m)
}

// TestForwardWaiterCancel: an exchange waiting on a full pool gives up
// when its origin does, and the slot it would have taken stays
// usable.
func TestForwardWaiterCancel(t *testing.T) {
	release := make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			<-release
		}
	}))
	defer node.Close()
	var releaseOnce sync.Once
	releaseAll := func() { releaseOnce.Do(func() { close(release) }) }
	defer releaseAll() // before node.Close, which waits for the handlers
	fw, m := newTestForwarder(t, node.URL)
	p := fw.pools[m]

	var wg sync.WaitGroup
	for i := 0; i < maxConnsPerNode; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fw.do(context.Background(), m, http.MethodGet, "/slow", nil, nil) //nolint:errcheck // released below
		}()
	}
	for len(p.slots) < maxConnsPerNode {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := fw.do(ctx, m, http.MethodGet, "/fast", nil, nil); err == nil {
		t.Fatal("an exchange past the cap ran while the pool was full")
	}
	releaseAll()
	wg.Wait()
	if _, err := fw.do(context.Background(), m, http.MethodGet, "/fast", nil, nil); err != nil {
		t.Fatal(err)
	}
	if open, idle := poolState(fw, m); open > maxIdlePerNode || idle != open {
		t.Fatalf("pool left %d open, %d idle; want at most %d, all idle", open, idle, maxIdlePerNode)
	}
	checkInnocent(t, m)
}

// BenchmarkGatewayHop is the gateway's own cost on the async path: a
// POST /v1/jobs and then a GET /v1/jobs/{id} through Gateway.Handler,
// over loopback, to a fake node that answers a fixed job status. Both
// sides of the hop and the client run in this process, so allocs/op
// counts all three.
func BenchmarkGatewayHop(b *testing.B) {
	node := newFakeNode("n1")
	defer node.srv.Close()
	_, srv := newTestGateway(b, node)
	client := srv.Client()
	call := func(method, url string, body string, want int) {
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive
		resp.Body.Close()
		if resp.StatusCode != want {
			b.Fatalf("%s %s: status %d, want %d", method, url, resp.StatusCode, want)
		}
	}
	submit, poll := srv.URL+"/v1/jobs", srv.URL+"/v1/jobs/j-n1-abcd0123-00000001"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(http.MethodPost, submit, allocBody, http.StatusAccepted)
		call(http.MethodGet, poll, "", http.StatusOK)
	}
}
