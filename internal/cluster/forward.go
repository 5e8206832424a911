// The HTTP forwarding client: one shared transport with bounded
// per-node connection pools, a per-attempt timeout, breaker-aware
// replica selection and jittered-backoff retries for idempotent
// requests.
//
// Failure policy: only transport-level failures (dial, reset, body
// read, timeout) count against a member's health and are retried —
// any complete HTTP response, whatever its status, is the node
// SPEAKING, and is passed through to the client verbatim (so a
// draining node's 503 + Retry-After reaches the client unchanged).
// The one exception: an idempotent request answered 503 retries once
// on the next replica after honoring the node's Retry-After — and
// when no better answer arrives, the original 503 is still what the
// client sees. Non-idempotent requests (job submission) are never
// retried: the first attempt may have been admitted before the
// connection died, and a blind retry would double-submit.
//
// An attempt that dies because the ORIGIN went away — client
// disconnect or spent deadline budget — is not the node's failure: it
// stays out of health and breaker accounting and is never retried.

package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"dspaddr/internal/deadline"
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

// Retry pacing: a retry waits a jittered exponential backoff, or the
// upstream's own Retry-After when the previous answer named one
// (capped so a node's "come back in a second" cannot stall the
// gateway hop that long).
const (
	retryBackoffBase = 15 * time.Millisecond
	retryBackoffCap  = 250 * time.Millisecond
	retryAfterCap    = 500 * time.Millisecond
)

// ErrAllReplicasDown reports that every replica in the key's sequence
// was down (or unreachable on this attempt) — the only condition the
// gateway answers with its own synthesized 503.
var ErrAllReplicasDown = errors.New("cluster: all replicas down")

// nodeResponse is one buffered node answer.
type nodeResponse struct {
	status int
	header http.Header
	body   []byte
	member *Member // who answered
}

// forwarder issues node requests over the shared pooled transport.
type forwarder struct {
	fleet  *Fleet
	client *http.Client

	// onForward reports every attempt for metrics: the member, the
	// status (0 on transport error), elapsed time and whether this
	// attempt was a retry. nil-safe. Attempts aborted by origin
	// cancellation are not reported.
	onForward func(m *Member, status int, dur time.Duration, retry bool)
}

// newForwarder builds the client around the fleet.
func newForwarder(fleet *Fleet, onForward func(*Member, int, time.Duration, bool)) *forwarder {
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
// gateway's trace ID rides the hop, and the remaining deadline budget
// of ctx (when the origin supplied one) rides as X-Deadline-Ms —
// computed at send time, so the decrement per hop is exactly the time
// this hop consumed. Transport failures are reported to the fleet and
// the member's breaker (passive health) and returned — unless the
// ORIGIN context died first, in which case the node is innocent and
// nothing is recorded. Complete responses are reported as successes
// to the fleet whatever their status; the breaker counts 5xx answers
// as failures and everything else, with its latency, as signal.
func (fw *forwarder) do(ctx context.Context, m *Member, method, pathAndQuery string, body []byte, hdr http.Header, retry bool) (*nodeResponse, error) {
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
	deadline.SetHeader(origin, req.Header)
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
			fw.onForward(m, 0, dur, retry)
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
			fw.onForward(m, 0, dur, retry)
		}
		return nil, err
	}
	fw.fleet.ReportSuccess(m)
	m.brk.record(resp.StatusCode < http.StatusInternalServerError, dur, time.Now())
	if fw.onForward != nil {
		fw.onForward(m, resp.StatusCode, dur, retry)
	}
	return &nodeResponse{status: resp.StatusCode, header: resp.Header, body: buf, member: m}, nil
}

// routed forwards to the key's replica sequence. Selection walks the
// up members with an admitting breaker first, then — failing open —
// the up members whose breakers refused, so an all-open breaker set
// degrades to plain liveness routing instead of synthesizing an
// outage. On a transport error, an idempotent request gets exactly
// one more attempt on the next candidate after a jittered backoff; an
// idempotent 503 likewise retries after honoring the node's
// Retry-After, falling back to the original 503 when nothing better
// answers. Returns ErrAllReplicasDown when no up replica exists (or
// the attempts exhausted them).
func (fw *forwarder) routed(ctx context.Context, key uint64, method, pathAndQuery string, body []byte, hdr http.Header, idempotent bool) (*nodeResponse, error) {
	attempts := 1
	if idempotent {
		attempts = 2
	}
	now := time.Now()
	var candidates, refused []*Member
	for _, m := range fw.fleet.Replicas(key) {
		if !m.Up() {
			continue
		}
		if m.brk.allow(now) {
			candidates = append(candidates, m)
		} else {
			refused = append(refused, m)
		}
	}
	candidates = append(candidates, refused...)

	tried := 0
	var lastErr error
	var last503 *nodeResponse
	for _, m := range candidates {
		if tried > 0 {
			wait := retryBackoff(tried)
			if last503 != nil {
				if ra := retryAfterOf(last503); ra > 0 {
					wait = ra
				}
			}
			if err := sleepCtx(ctx, wait); err != nil {
				break
			}
		}
		resp, err := fw.do(ctx, m, method, pathAndQuery, body, hdr, tried > 0)
		if err == nil {
			if resp.status == http.StatusServiceUnavailable && idempotent && tried+1 < attempts {
				last503 = resp
				tried++
				continue
			}
			return resp, nil
		}
		if ctx.Err() != nil {
			// The origin went away (disconnect or spent budget): stop.
			return nil, err
		}
		lastErr = err
		if tried++; tried >= attempts {
			lastErr = fmt.Errorf("last attempt %s: %v", m.Name, err)
			break
		}
	}
	if last503 != nil {
		// Every retry slot burned and the best answer remains the
		// node's own 503 — pass it through with the NODE's timing.
		return last503, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("%w (%v)", ErrAllReplicasDown, lastErr)
	}
	return nil, ErrAllReplicasDown
}

// retryBackoff is the jittered exponential wait before retry number
// `attempt` (1-based): uniformly in [base·2ⁿ⁻¹/2, base·2ⁿ⁻¹), capped.
func retryBackoff(attempt int) time.Duration {
	d := retryBackoffBase << (attempt - 1)
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(half)))
}

// retryAfterOf parses a node 503's Retry-After (whole seconds per the
// node contract), capped to keep the gateway hop bounded. Zero when
// absent or malformed.
func retryAfterOf(resp *nodeResponse) time.Duration {
	ra := resp.header.Get("Retry-After")
	if ra == "" {
		return 0
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > retryAfterCap {
		d = retryAfterCap
	}
	return d
}

// sleepCtx waits d or until ctx dies.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
