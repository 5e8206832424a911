package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/cluster"
	"dspaddr/internal/engine"
	"dspaddr/internal/model"
)

// wideOptimalBody is a pattern whose offsets lie 65536 apart, beyond
// any 16-bit packing of register tails: the exact merge serves it at
// the exhaustive optimum, two registers at cost 4.
const wideOptimalBody = `{
	"pattern": {"offsets": [0, 65536, 131072, 0, 65536, 131072, 0, 65536, 131072]},
	"agu": {"registers": 2, "modifyRange": 1},
	"strategy": "optimal"
}`

// TestAllocateOptimalWideOffsets posts the pattern to a node and to a
// gateway fronting two nodes; both answer 200 with the optimum.
func TestAllocateOptimalWideOffsets(t *testing.T) {
	node := newTestServer(t, engine.Options{Workers: 1})
	var members []cluster.Member
	for _, name := range []string{"a", "b"} {
		ts := newTestServerWith(t, engine.Options{Workers: 1}, serverOptions{version: "test", nodeID: name})
		members = append(members, cluster.Member{Name: name, URL: ts.URL})
	}
	fleet, err := cluster.NewFleet(members, cluster.FleetOptions{ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := cluster.New(cluster.Options{Fleet: fleet, Version: "test"})
	if err != nil {
		t.Fatal(err)
	}
	gate := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { gate.Close(); gw.Close() })

	for name, url := range map[string]string{"node": node.URL, "gateway": gate.URL} {
		var resp api.JobResponse
		if status := do(t, url+"/v1/allocate", wideOptimalBody, &resp); status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", name, status, resp.Error)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("%s: %d results", name, len(resp.Results))
		}
		if r := resp.Results[0]; r.Cost != 4 || r.RegistersUsed != 2 {
			t.Fatalf("%s: cost %d on %d registers, want 4 on 2", name, r.Cost, r.RegistersUsed)
		}
	}
}

// TestAllocateOptimalTimeout: an "optimal" job that merges for ~3 s
// (4096 accesses into two registers, on a 2-vCPU host) is answered as
// a timeout once the per-job deadline passes, and nothing is cached
// for it.
func TestAllocateOptimalTimeout(t *testing.T) {
	ts := newTestServer(t, engine.Options{Workers: 1, JobTimeout: 100 * time.Millisecond})
	rng := rand.New(rand.NewSource(4096))
	offs := make([]string, model.MaxAccesses)
	for i := range offs {
		offs[i] = fmt.Sprint(rng.Intn(4000))
	}
	body := `{"pattern":{"offsets":[` + strings.Join(offs, ",") + `]},"agu":{"registers":2,"modifyRange":0},"strategy":"optimal"}`
	for try := 0; try < 2; try++ {
		var resp api.JobResponse
		start := time.Now()
		status := do(t, ts.URL+"/v1/allocate", body, &resp)
		if status != http.StatusGatewayTimeout || !strings.Contains(resp.Error, "timed out") {
			t.Fatalf("try %d: status %d, error %q; want 504 timed out", try, status, resp.Error)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("try %d: answered after %v", try, elapsed)
		}
	}
	if s := getStats(t, ts); s.CacheEntries != 0 || s.CacheHits != 0 || s.Timeouts != 2 {
		t.Fatalf("stats after two timeouts: entries %d hits %d timeouts %d; want 0, 0, 2", s.CacheEntries, s.CacheHits, s.Timeouts)
	}
}
