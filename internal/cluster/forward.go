// The HTTP forwarding client: one shared transport with bounded
// per-node connection pools and a per-exchange timeout. Every route
// picks its member first (by ring position, job-ID owner or fan-out)
// and forwards exactly once; nothing is re-sent.
//
// Failure policy: only transport-level failures (dial, reset, body
// read, timeout) count against a member's health — any complete HTTP
// response, whatever its status, is the node SPEAKING, and is passed
// through to the client verbatim (so a draining node's 503 +
// Retry-After reaches the client unchanged).
//
// An exchange that dies because the ORIGIN went away (the client
// disconnected) is not the node's failure: it stays out of health and
// breaker accounting.

package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Forwarding defaults.
const (
	// forwardTimeout bounds one forwarded exchange; generous because
	// a node-side solve may legitimately run to the node's own per-job
	// deadline (5s default) and batches run many.
	forwardTimeout = 30 * time.Second
	// maxIdlePerNode and maxConnsPerNode bound each node's connection
	// pool: enough parallelism for a busy gateway, a hard cap so one
	// slow node cannot accumulate unbounded sockets.
	maxIdlePerNode  = 32
	maxConnsPerNode = 128
	// maxNodeResponseBytes caps a buffered node response; /metrics and
	// job results are the largest bodies and stay far below this.
	maxNodeResponseBytes = 64 << 20
)

// ErrAllReplicasDown reports that every replica in the key's sequence
// was down — the gateway answers it with its own synthesized 503.
var ErrAllReplicasDown = errors.New("cluster: all replicas down")

// nodeResponse is one buffered node answer.
type nodeResponse struct {
	status int
	header http.Header
	body   []byte
}

// forwarder issues node requests over the shared pooled transport.
type forwarder struct {
	fleet  *Fleet
	client *http.Client

	// onForward reports every exchange for metrics: the member, the
	// status (0 on transport error) and elapsed time. nil-safe.
	// Exchanges aborted by origin cancellation are not reported.
	onForward func(m *Member, status int, dur time.Duration)
}

// newForwarder builds the client around the fleet.
func newForwarder(fleet *Fleet, onForward func(*Member, int, time.Duration)) *forwarder {
	return &forwarder{
		fleet: fleet,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: maxIdlePerNode,
				MaxConnsPerHost:     maxConnsPerNode,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		onForward: onForward,
	}
}

// close releases idle pooled connections.
func (fw *forwarder) close() {
	if t, ok := fw.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// do issues one request to one member and buffers the response. The
// X-Request-Id and Content-Type headers of hdr are forwarded, so the
// gateway's trace ID rides the hop. Transport failures are reported
// to the fleet and the member's breaker (passive health) and returned
// — unless the ORIGIN context died first, in which case the node is
// innocent and nothing is recorded. Complete responses are reported
// as successes to the fleet whatever their status; the breaker counts
// 5xx answers as failures and everything else, with its latency, as
// signal.
func (fw *forwarder) do(ctx context.Context, m *Member, method, pathAndQuery string, body []byte, hdr http.Header) (*nodeResponse, error) {
	origin := ctx
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, m.URL+pathAndQuery, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: build request: %w", err)
	}
	if hdr != nil {
		if id := hdr.Get("X-Request-Id"); id != "" {
			req.Header.Set("X-Request-Id", id)
		}
		if ct := hdr.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
	}
	start := time.Now()
	resp, err := fw.client.Do(req)
	if err != nil {
		if origin.Err() != nil {
			return nil, err
		}
		dur := time.Since(start)
		fw.fleet.ReportFailure(m)
		m.brk.record(false, dur, time.Now())
		if fw.onForward != nil {
			fw.onForward(m, 0, dur)
		}
		return nil, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxNodeResponseBytes))
	dur := time.Since(start)
	if err != nil {
		if origin.Err() != nil {
			return nil, err
		}
		fw.fleet.ReportFailure(m)
		m.brk.record(false, dur, time.Now())
		if fw.onForward != nil {
			fw.onForward(m, 0, dur)
		}
		return nil, err
	}
	fw.fleet.ReportSuccess(m)
	m.brk.record(resp.StatusCode < http.StatusInternalServerError, dur, time.Now())
	if fw.onForward != nil {
		fw.onForward(m, resp.StatusCode, dur)
	}
	return &nodeResponse{status: resp.StatusCode, header: resp.Header, body: buf}, nil
}
