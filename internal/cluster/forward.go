// The forwarding client: a bounded pool of keep-alive HTTP/1.1
// connections per member, and each forwarded exchange run start to
// finish on the caller's goroutine — the request head is written by
// hand, the answer read with http.ReadResponse. Every route picks its
// member first (by ring position, job-ID owner or fan-out) and forwards
// exactly once; nothing is re-sent.
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
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"strconv"
	"sync/atomic"
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
	// idleConnTimeout closes a pooled connection nobody has used for
	// that long.
	idleConnTimeout = 90 * time.Second
	// maxNodeResponseBytes caps a buffered node response; /metrics and
	// job results are the largest bodies and stay far below this.
	maxNodeResponseBytes = 64 << 20
	// maxKeptWriteBuf caps the request buffer a connection keeps
	// between exchanges.
	maxKeptWriteBuf = 64 << 10
)

// ErrAllReplicasDown reports that every replica in the key's sequence
// was down — the gateway answers it with its own synthesized 503.
var ErrAllReplicasDown = errors.New("cluster: all replicas down")

// errPoolWait reports an exchange that waited its whole timeout for
// one of the member's maxConnsPerNode connections.
var errPoolWait = errors.New("cluster: timed out waiting for a node connection")

// aLongTimeAgo is the deadline that aborts a blocked read or write at
// once.
var aLongTimeAgo = time.Unix(1, 0)

// nodeResponse is one buffered node answer.
type nodeResponse struct {
	status int
	header http.Header
	body   []byte
}

// forwarder issues node requests over the members' connection pools.
type forwarder struct {
	fleet *Fleet
	pools map[*Member]*nodePool

	// onForward reports every exchange for metrics: the member, the
	// status (0 on transport error) and elapsed time. nil-safe.
	// Exchanges aborted by origin cancellation are not reported.
	onForward func(m *Member, status int, dur time.Duration)
}

// newForwarder builds one pool per fleet member.
func newForwarder(fleet *Fleet, onForward func(*Member, int, time.Duration)) *forwarder {
	fw := &forwarder{fleet: fleet, pools: make(map[*Member]*nodePool, len(fleet.members)), onForward: onForward}
	for _, m := range fleet.members {
		fw.pools[m] = newNodePool(m.addr, m.host)
	}
	return fw
}

// close releases idle pooled connections; connections still in an
// exchange are closed when it ends.
func (fw *forwarder) close() {
	for _, p := range fw.pools {
		p.close()
	}
}

// do issues one request to one member and buffers the response. The
// X-Request-Id and Content-Type headers of hdr are forwarded, so the
// gateway's trace ID rides the hop; target is the escaped path and
// query. Transport failures are reported to the fleet and the member's
// breaker (passive health) and returned — unless the ORIGIN context
// died first, in which case the node is innocent and nothing is
// recorded. Complete responses are reported as successes to the fleet
// whatever their status; the breaker counts 5xx answers as failures
// and everything else, with its latency, as signal.
func (fw *forwarder) do(ctx context.Context, m *Member, method, target string, body []byte, hdr http.Header) (*nodeResponse, error) {
	if !validTarget(target) {
		return nil, fmt.Errorf("cluster: bad request target %q", target)
	}
	start := time.Now()
	resp, err := fw.pools[m].exchange(ctx, start.Add(forwardTimeout), method, target, body, hdr)
	dur := time.Since(start)
	if err != nil {
		if ctx.Err() != nil {
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
	m.brk.record(resp.status < http.StatusInternalServerError, dur, time.Now())
	if fw.onForward != nil {
		fw.onForward(m, resp.status, dur)
	}
	return resp, nil
}

// validTarget reports a request target safe to put on the request
// line: non-empty printable ASCII without spaces.
func validTarget(target string) bool {
	if target == "" {
		return false
	}
	for i := 0; i < len(target); i++ {
		if c := target[i]; c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}

// nodePool is one member's keep-alive connections. A token in slots
// stands for each open connection — idle, in an exchange or being
// dialed — so at most maxConnsPerNode are open; idle holds at most
// maxIdlePerNode of them. An exchange that finds the pool full waits
// for whichever comes first: a connection another exchange put back
// or a slot a closed one freed.
type nodePool struct {
	addr string // dial address, host:port
	host string // Host header value

	slots  chan struct{}
	idle   chan *nodeConn
	closed atomic.Bool
}

func newNodePool(addr, host string) *nodePool {
	return &nodePool{
		addr:  addr,
		host:  host,
		slots: make(chan struct{}, maxConnsPerNode),
		idle:  make(chan *nodeConn, maxIdlePerNode),
	}
}

// nodeConn is one pooled connection and its buffers.
type nodeConn struct {
	conn  net.Conn
	br    *bufio.Reader
	wbuf  []byte
	abort func() // moves the deadline into the past
	// expiry closes the connection once it has sat idle for
	// idleConnTimeout; armed while pooled, nil until first pooled.
	expiry *time.Timer
}

// exchange runs one request/response on a pooled connection, under the
// absolute deadline; ctx's cancellation aborts it midway. The
// connection goes back to the pool only after a complete, keep-alive
// answer.
func (p *nodePool) exchange(ctx context.Context, deadline time.Time, method, target string, body []byte, hdr http.Header) (*nodeResponse, error) {
	c, err := p.get(ctx, deadline)
	if err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, c.abort)
	resp, reusable, err := c.roundTrip(method, target, p.host, body, hdr)
	if !stop() {
		reusable = false // the abort fired: the deadline is in the past
	}
	if reusable {
		p.put(c)
	} else {
		p.drop(c)
	}
	return resp, err
}

// get returns a connection whose deadline is set: a live idle one,
// else a new one while a slot is free, else whichever of the two turns
// up first at a full pool, before ctx or the deadline ends the wait.
func (p *nodePool) get(ctx context.Context, deadline time.Time) (*nodeConn, error) {
	var timeout <-chan time.Time
	for {
		var c *nodeConn
		select {
		case c = <-p.idle:
		default:
			if timeout == nil {
				t := time.NewTimer(time.Until(deadline))
				defer t.Stop()
				timeout = t.C
			}
			select {
			case c = <-p.idle:
			case p.slots <- struct{}{}:
				return p.dial(ctx, deadline)
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-timeout:
				return nil, errPoolWait
			}
		}
		// A connection whose expiry fired is closed already. One the
		// node closed while it sat idle (restart, idle close) costs a
		// fresh dial, not a failed exchange.
		if c.expiry.Stop() && c.conn.SetDeadline(deadline) == nil && c.alive() {
			return c, nil
		}
		p.drop(c)
	}
}

// dial opens a connection in the slot get took.
func (p *nodePool) dial(ctx context.Context, deadline time.Time) (*nodeConn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", p.addr)
	if err == nil {
		err = nc.SetDeadline(deadline)
	}
	if err != nil {
		if nc != nil {
			nc.Close()
		}
		<-p.slots
		return nil, err
	}
	return &nodeConn{
		conn:  nc,
		br:    bufio.NewReaderSize(nc, 4<<10),
		abort: func() { nc.SetDeadline(aLongTimeAgo) }, //nolint:errcheck // a closed conn is aborted already
	}, nil
}

// put returns a connection after a complete exchange to the idle set,
// or closes it when that is full or the pool is closed. The expiry is
// armed before the connection is visible to another exchange.
func (p *nodePool) put(c *nodeConn) {
	if !p.closed.Load() {
		if c.expiry == nil {
			nc := c.conn
			c.expiry = time.AfterFunc(idleConnTimeout, func() { nc.Close() })
		} else {
			c.expiry.Reset(idleConnTimeout)
		}
		select {
		case p.idle <- c:
			return
		default:
			c.expiry.Stop()
		}
	}
	p.drop(c)
}

// drop closes a connection and frees its slot.
func (p *nodePool) drop(c *nodeConn) {
	c.conn.Close()
	<-p.slots
}

// close closes the idle connections and stops pooling.
func (p *nodePool) close() {
	p.closed.Store(true)
	for {
		select {
		case c := <-p.idle:
			c.expiry.Stop()
			p.drop(c)
		default:
			return
		}
	}
}

// roundTrip writes the request — head and body in one write — and
// reads the whole answer. reusable is true when the body was read to
// its end below maxNodeResponseBytes and the node keeps the
// connection open.
func (c *nodeConn) roundTrip(method, target, host string, body []byte, hdr http.Header) (resp *nodeResponse, reusable bool, err error) {
	b := append(c.wbuf[:0], method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\n"...)
	if hdr != nil {
		b = appendHeader(b, "X-Request-Id", hdr.Get("X-Request-Id"))
		b = appendHeader(b, "Content-Type", hdr.Get("Content-Type"))
	}
	if body != nil {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, body...)
	if cap(b) <= maxKeptWriteBuf {
		c.wbuf = b
	}
	if _, err := c.conn.Write(b); err != nil {
		return nil, false, err
	}
	r, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, false, err
	}
	buf, complete, err := readBody(r)
	if err != nil {
		return nil, false, err
	}
	return &nodeResponse{status: r.StatusCode, header: r.Header, body: buf},
		complete && !r.Close && c.br.Buffered() == 0, nil
}

// readBody buffers a response body, truncated at maxNodeResponseBytes;
// complete reports that it was read to its end.
func readBody(r *http.Response) (body []byte, complete bool, err error) {
	if n := r.ContentLength; n >= 0 && n < maxNodeResponseBytes {
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
		return body, err == nil, err
	}
	body, err = io.ReadAll(io.LimitReader(r.Body, maxNodeResponseBytes))
	return body, err == nil && len(body) < maxNodeResponseBytes, err
}

// appendHeader appends one header line, unless v is empty or holds a
// control byte net/http would refuse to send.
func appendHeader(b []byte, name, v string) []byte {
	v = textproto.TrimString(v)
	if v == "" {
		return b
	}
	for i := 0; i < len(v); i++ {
		if c := v[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return b
		}
	}
	b = append(b, name...)
	b = append(b, ": "...)
	b = append(b, v...)
	return append(b, "\r\n"...)
}
