// Static-config membership with active health checking.
//
// The member list is fixed at construction (operator config); only
// liveness changes at runtime. A background checker probes every
// member's /healthz each interval; FailThreshold consecutive failures
// mark a member down, one success marks it back up. The forwarding
// layer also reports its transport outcomes into the same counters
// (passive checking), so a crashed node is usually down after the
// first failed forward plus one failed probe rather than only after
// the probe loop notices on its own.

package cluster

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Health-check defaults (FleetOptions zero values).
const (
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = time.Second
	DefaultFailThreshold = 2
)

// Member is one node of the fleet. Name and URL are immutable; the
// liveness state is owned by the fleet's health machinery.
type Member struct {
	// Name is the node identity — it must equal the node's -node-id so
	// job-ID tags (jobs.NodeOf) resolve back to this member.
	Name string
	// URL is the node's base URL, e.g. "http://127.0.0.1:8081".
	URL string

	// host and addr are URL's Host header value and dial address,
	// filled by NewFleet.
	host, addr string

	up    atomic.Bool
	fails atomic.Int32 // consecutive failures since the last success
	// downSince records when the member was last marked down (unix
	// nanos), 0 while up. Informational (the /v1/cluster surface).
	downSince atomic.Int64

	// brk is this member's circuit breaker, built by NewFleet. It is
	// orthogonal to up/down liveness: the prober owns liveness, the
	// breaker owns routability of live-but-slow members.
	brk *breaker
}

// Up reports current liveness.
func (m *Member) Up() bool { return m.up.Load() }

// Fails returns the consecutive-failure count.
func (m *Member) Fails() int { return int(m.fails.Load()) }

// DownSince returns when the member was marked down (zero time while
// up).
func (m *Member) DownSince() time.Time {
	ns := m.downSince.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// BreakerState reports the member's circuit position (closed for a
// member without a breaker, e.g. one built by a bare Member literal
// in tests).
func (m *Member) BreakerState() BreakerState {
	if m.brk == nil {
		return BreakerClosed
	}
	st, _, _ := m.brk.snapshot()
	return st
}

// BreakerWindow reports the rolling outcome window: how many samples
// it holds and how many of them were failures.
func (m *Member) BreakerWindow() (samples, failed int) {
	if m.brk == nil {
		return 0, 0
	}
	_, samples, failed = m.brk.snapshot()
	return samples, failed
}

// FleetOptions configures membership and health checking.
type FleetOptions struct {
	// ProbeInterval is the health-check cadence (0 = 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (0 = 1s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive failures (probe or
	// forward) mark a member down (0 = 2).
	FailThreshold int
	// OnTransition, when non-nil, is called after every mark-down and
	// mark-up (concurrently; must be cheap). The gateway points it at
	// its metrics.
	OnTransition func(m *Member, up bool)
	// Breaker tunes the per-member circuit breakers (zero values =
	// defaults).
	Breaker BreakerOptions
	// OnBreakerTransition, when non-nil, is called on every breaker
	// state change (concurrently, possibly under the breaker's lock;
	// must be cheap and non-reentrant).
	OnBreakerTransition func(m *Member, to BreakerState)
}

// Fleet is the member set plus ring plus health checker.
type Fleet struct {
	members []*Member
	byName  map[string]*Member
	ring    *Ring
	opts    FleetOptions
	probe   *http.Client

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// ParseMembers parses the -nodes flag grammar:
// "name1=http://host:port,name2=http://host:port". Names must be the
// nodes' -node-id values. A URL must be plain http with no path (a
// trailing slash is dropped), query, fragment or userinfo: the
// forwarding pool dials host:port and speaks HTTP/1.1.
func ParseMembers(spec string) ([]Member, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty node list")
	}
	var out []Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rawURL, ok := strings.Cut(part, "=")
		if !ok || name == "" || rawURL == "" {
			return nil, fmt.Errorf("cluster: bad node entry %q (want name=url)", part)
		}
		rawURL = strings.TrimRight(rawURL, "/")
		if _, _, err := memberAddr(rawURL); err != nil {
			return nil, err
		}
		out = append(out, Member{Name: name, URL: rawURL})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty node list")
	}
	return out, nil
}

// memberAddr checks a member URL the forwarding pool can serve —
// plain http to a host, with no path, query, fragment or userinfo —
// and returns its Host header value and dial address (port 80 when
// the URL names none).
func memberAddr(rawURL string) (host, addr string, err error) {
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme != "http" || u.Host == "" || u.Opaque != "" || u.User != nil ||
		u.Path != "" || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return "", "", fmt.Errorf("cluster: bad node URL %q (want http://host:port)", rawURL)
	}
	addr = u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return u.Host, addr, nil
}

// NewFleet builds the fleet and its ring. Members start up — the
// static config is trusted until a probe or forward says otherwise —
// and the first probe round runs immediately on Start. The caller
// must Stop the fleet to release the checker. Every member URL must
// pass ParseMembers' check.
func NewFleet(members []Member, opts FleetOptions) (*Fleet, error) {
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = DefaultProbeInterval
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = DefaultProbeTimeout
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = DefaultFailThreshold
	}
	names := make([]string, len(members))
	for i := range members {
		names[i] = members[i].Name
	}
	ring, err := NewRing(names, DefaultVirtualNodes)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		members: make([]*Member, len(members)),
		byName:  make(map[string]*Member, len(members)),
		ring:    ring,
		opts:    opts,
		// A dedicated client, so probes never queue behind forwarded
		// traffic.
		probe: &http.Client{
			Timeout: opts.ProbeTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		stop: make(chan struct{}),
	}
	for i := range members {
		m := &Member{Name: members[i].Name, URL: members[i].URL}
		if m.host, m.addr, err = memberAddr(m.URL); err != nil {
			return nil, err
		}
		m.up.Store(true)
		// The hook is read through f.opts at fire time, so a gateway
		// that installs OnBreakerTransition after NewFleet still hears
		// every transition.
		m.brk = newBreaker(opts.Breaker, func(to BreakerState) {
			if f.opts.OnBreakerTransition != nil {
				f.opts.OnBreakerTransition(m, to)
			}
		})
		f.members[i] = m
		f.byName[m.Name] = m
	}
	return f, nil
}

// Ring exposes the underlying hash ring (read-only).
func (f *Fleet) Ring() *Ring { return f.ring }

// Members returns the member set in config order.
func (f *Fleet) Members() []*Member { return f.members }

// Member resolves a name (a job-ID tag) to its member, nil if
// unknown.
func (f *Fleet) Member(name string) *Member { return f.byName[name] }

// UpCount returns how many members are currently up.
func (f *Fleet) UpCount() int {
	n := 0
	for _, m := range f.members {
		if m.Up() {
			n++
		}
	}
	return n
}

// Replicas returns the members in ring preference order for the key:
// the owner first, then its successors. Liveness is not filtered here
// — callers walk the sequence skipping down members, which IS the
// deterministic rehash (a downed owner's keys land on its successor).
func (f *Fleet) Replicas(key uint64) []*Member {
	seq := f.ring.Sequence(key)
	out := make([]*Member, len(seq))
	for i, idx := range seq {
		out[i] = f.members[idx]
	}
	return out
}

// FirstRoutable returns the first up member of the key's replica
// sequence whose circuit breaker admits a request now. When every up
// member's breaker refuses, routing fails OPEN — the first up member
// is returned regardless, because an all-open breaker set must
// degrade to plain liveness routing, never synthesize a fleet outage
// the nodes themselves aren't having. Returns nil only when every
// replica is down.
func (f *Fleet) FirstRoutable(key uint64) *Member {
	now := time.Now()
	var fallback *Member
	for _, m := range f.Replicas(key) {
		if !m.Up() {
			continue
		}
		if fallback == nil {
			fallback = m
		}
		if m.brk.allow(now) {
			return m
		}
	}
	return fallback
}

// ReportSuccess resets the member's failure run and marks it up.
// Called by probes and by the forwarder on every completed exchange.
func (f *Fleet) ReportSuccess(m *Member) {
	m.fails.Store(0)
	if m.up.CompareAndSwap(false, true) {
		m.downSince.Store(0)
		if f.opts.OnTransition != nil {
			f.opts.OnTransition(m, true)
		}
	}
}

// ReportFailure counts one failed exchange and marks the member down
// once the run reaches the threshold.
func (f *Fleet) ReportFailure(m *Member) {
	if int(m.fails.Add(1)) < f.opts.FailThreshold {
		return
	}
	if m.up.CompareAndSwap(true, false) {
		m.downSince.Store(time.Now().UnixNano())
		if f.opts.OnTransition != nil {
			f.opts.OnTransition(m, false)
		}
	}
}

// Start launches the health checker: one probe round immediately,
// then one per interval until Stop.
func (f *Fleet) Start() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.probeAll()
		t := time.NewTicker(f.opts.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				f.probeAll()
			}
		}
	}()
}

// Stop halts the checker and waits for in-flight probes.
func (f *Fleet) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
}

// probeAll probes every member concurrently and applies the results.
func (f *Fleet) probeAll() {
	var wg sync.WaitGroup
	for _, m := range f.members {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			if f.probeOne(m) {
				f.ReportSuccess(m)
			} else {
				f.ReportFailure(m)
			}
		}(m)
	}
	wg.Wait()
}

// probeOne is one GET /healthz; any 200 is healthy.
func (f *Fleet) probeOne(m *Member) bool {
	req, err := http.NewRequest(http.MethodGet, m.URL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := f.probe.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	return resp.StatusCode == http.StatusOK
}
