package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("n1=http://127.0.0.1:8081, n2=http://127.0.0.1:8082/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Name != "n1" || ms[1].URL != "http://127.0.0.1:8082" {
		t.Fatalf("parsed %+v", ms)
	}
	for _, bad := range []string{
		"", "n1", "n1=", "=http://x", "n1=not a url", "n1=hostonly",
		// What the forwarding pool cannot serve: TLS or another
		// scheme, a path, a query, a fragment, userinfo.
		"n1=https://127.0.0.1:8081", "n1=ftp://127.0.0.1:8081",
		"n1=http://127.0.0.1:8081/v1", "n1=http://127.0.0.1:8081/prefix/",
		"n1=http://127.0.0.1:8081?x=1", "n1=http://127.0.0.1:8081?",
		"n1=http://127.0.0.1:8081#top", "n1=http://user:pw@127.0.0.1:8081", "n1=http://user@127.0.0.1:8081",
	} {
		if _, err := ParseMembers(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestFleetHealthStateMachine drives the mark-down / mark-up cycle
// through real probes: a healthy node stays up, goes down after
// FailThreshold consecutive probe failures, and returns on the first
// success.
func TestFleetHealthStateMachine(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && healthy.Load() {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer node.Close()

	transitions := make(chan bool, 16)
	f, err := NewFleet([]Member{{Name: "n1", URL: node.URL}}, FleetOptions{
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailThreshold: 2,
		OnTransition:  func(m *Member, up bool) { transitions <- up },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	defer f.Stop()

	m := f.Member("n1")
	if m == nil || !m.Up() {
		t.Fatal("member should start up")
	}

	healthy.Store(false)
	select {
	case up := <-transitions:
		if up {
			t.Fatal("first transition should be a mark-down")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no mark-down within 5s")
	}
	if m.Up() {
		t.Fatal("member still up after mark-down transition")
	}
	if m.DownSince().IsZero() {
		t.Fatal("downSince not recorded")
	}
	if f.UpCount() != 0 {
		t.Fatalf("UpCount = %d, want 0", f.UpCount())
	}

	healthy.Store(true)
	select {
	case up := <-transitions:
		if !up {
			t.Fatal("expected a mark-up")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no mark-up within 5s")
	}
	if !m.Up() || !m.DownSince().IsZero() {
		t.Fatal("member not restored after mark-up")
	}
}

// TestFleetPassiveReporting asserts forwarder-style failure reports
// alone mark a node down, and one success resets the run.
func TestFleetPassiveReporting(t *testing.T) {
	f, err := NewFleet([]Member{{Name: "a", URL: "http://127.0.0.1:1"}}, FleetOptions{FailThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Member("a")
	f.ReportFailure(m)
	f.ReportFailure(m)
	if !m.Up() {
		t.Fatal("down before threshold")
	}
	f.ReportSuccess(m) // resets the run
	f.ReportFailure(m)
	f.ReportFailure(m)
	if !m.Up() {
		t.Fatal("success did not reset the failure run")
	}
	f.ReportFailure(m)
	if m.Up() {
		t.Fatal("still up at threshold")
	}
	f.ReportSuccess(m)
	if !m.Up() {
		t.Fatal("one success should mark up")
	}
}

// TestFleetRehashToSuccessor asserts FirstRoutable walks the ring
// sequence: with every breaker closed and the owner down, its keys
// land on the ring successor, and with everyone down FirstRoutable
// reports nil.
func TestFleetRehashToSuccessor(t *testing.T) {
	f, err := NewFleet([]Member{
		{Name: "n1", URL: "http://127.0.0.1:1"},
		{Name: "n2", URL: "http://127.0.0.1:2"},
		{Name: "n3", URL: "http://127.0.0.1:3"},
	}, FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(0xdeadbeefcafef00d)
	owner := f.FirstRoutable(key)
	if owner == nil {
		t.Fatal("no owner with all up")
	}
	seq := f.Replicas(key)
	if seq[0] != owner {
		t.Fatal("FirstRoutable should be the sequence head with all up")
	}
	owner.up.Store(false)
	next := f.FirstRoutable(key)
	if next == nil || next != seq[1] {
		t.Fatalf("downed owner's key should rehash to the ring successor %s, got %v", seq[1].Name, next)
	}
	for _, m := range f.Members() {
		m.up.Store(false)
	}
	if f.FirstRoutable(key) != nil {
		t.Fatal("FirstRoutable with all down should be nil")
	}
}
