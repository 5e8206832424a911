//go:build unix

package cluster

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// countingNode answers every request 200 and counts them.
type countingNode struct{ gets, posts atomic.Int32 }

func (n *countingNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body) //nolint:errcheck // test node
	if r.Method == http.MethodPost {
		n.posts.Add(1)
	} else {
		n.gets.Add(1)
	}
	io.WriteString(w, "ok") //nolint:errcheck // test node
}

// exchangeOnce sends a GET and a POST and checks that each reached
// node exactly once and answered 200.
func exchangeOnce(t *testing.T, fw *forwarder, m *Member, node *countingNode) {
	t.Helper()
	gets, posts := node.gets.Load(), node.posts.Load()
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		var body []byte
		if method == http.MethodPost {
			body = []byte(`{}`)
		}
		resp, err := fw.do(context.Background(), m, method, "/v1/jobs", body, nil)
		if err != nil {
			t.Fatalf("%s after the node dropped its connections: %v", method, err)
		}
		if resp.status != http.StatusOK {
			t.Fatalf("%s answered %d", method, resp.status)
		}
	}
	if g, p := node.gets.Load()-gets, node.posts.Load()-posts; g != 1 || p != 1 {
		t.Fatalf("node saw %d GETs and %d POSTs, want one of each", g, p)
	}
}

// TestForwardAfterNodeDropsConnections: a node that closes its
// keep-alive connections between requests costs the gateway a fresh
// dial, not a failed exchange or a second copy of the request.
func TestForwardAfterNodeDropsConnections(t *testing.T) {
	node := new(countingNode)
	srv := httptest.NewServer(node)
	defer srv.Close()
	fw, m := newTestForwarder(t, srv.URL)
	for round := 0; round < 5; round++ {
		exchangeOnce(t, fw, m, node)
		if _, idle := poolState(fw, m); idle == 0 {
			t.Fatalf("round %d: no connection pooled", round)
		}
		srv.CloseClientConnections()
	}
	checkInnocent(t, m)
}

// TestForwardAfterNodeRestart: a node restarted on the same port is
// reached over new connections; the ones the old process closed are
// not reused.
func TestForwardAfterNodeRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	start := func(ln net.Listener) (*httptest.Server, *countingNode) {
		node := new(countingNode)
		srv := httptest.NewUnstartedServer(node)
		srv.Listener.Close()
		srv.Listener = ln
		srv.Start()
		return srv, node
	}
	srv, node := start(ln)
	fw, m := newTestForwarder(t, "http://"+addr)
	exchangeOnce(t, fw, m, node)
	for restart := 0; restart < 3; restart++ {
		srv.Close()
		if ln, err = net.Listen("tcp", addr); err != nil {
			t.Fatal(err)
		}
		srv, node = start(ln)
		exchangeOnce(t, fw, m, node)
		exchangeOnce(t, fw, m, node)
	}
	srv.Close()
	checkInnocent(t, m)
}
