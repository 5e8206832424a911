// Gateway hop gate (-exp bench, the gateway/* scenarios): what
// rcagate adds to a request compared with hitting the owning node
// directly. Two minimal node servers sit on loopback listeners; an
// in-process cluster.Gateway fronts them; the same /v1/allocate body
// is fired at a node and at the gateway in strictly alternating
// rounds, and each adjacent pair of rounds contributes one p99 DELTA
// (gateway minus direct) to the gate's median. The ceiling is
// absolute — the forwarded hop may cost at most 1ms extra at p99 —
// because the hop's price (one loopback round trip, a routing-key
// hash, header copies) does not scale with the node's own work, so a
// ratio against a near-zero denominator would gate noise.
//
// The node handlers do trivial work on purpose: any real solve time
// appears identically on both sides of every pair and would only
// dilute the statistic being gated.

package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"dspaddr/internal/cluster"
)

const (
	fwdDirectBenchKey  = "gateway/direct/http4"
	fwdGatewayBenchKey = "gateway/forward/http4"
)

// gatewayHopCeilingNs is the absolute p99 ceiling on the forwarded
// hop: median paired-round (gateway p99 - direct p99) must stay under
// one millisecond.
const gatewayHopCeilingNs = 1e6

// gatewayRounds alternating round pairs; each contributes one p99
// delta to the gate's median.
const gatewayRounds = 40

// gatewayBenchBody is a fixed allocate request, so every round routes
// to the same ring owner and the comparison holds the path constant.
var gatewayBenchBody = []byte(`{"pattern":{"offsets":[1,0,2,-1,1,0,-2]},"agu":{"registers":2,"modifyRange":1}}`)

// benchNode is one minimal fleet node: healthz plus an allocate route
// that answers immediately (the hop, not the solve, is under test).
func benchNode() (*http.Server, string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"results":[{"array":"A","offsets":[1,0,2,-1,1,0,-2],"cost":3}]}`)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // reported via requests failing
	return srv, "http://" + ln.Addr().String(), nil
}

// measureGatewayScenarios runs the interleaved direct/forwarded
// comparison, prints both rows and returns the gated statistic: the
// median paired-round p99 delta (forwarded minus direct), in
// nanoseconds.
func measureGatewayScenarios(out io.Writer) (float64, error) {
	nodeA, urlA, err := benchNode()
	if err != nil {
		return 0, err
	}
	defer nodeA.Close()
	nodeB, urlB, err := benchNode()
	if err != nil {
		return 0, err
	}
	defer nodeB.Close()

	fleet, err := cluster.NewFleet([]cluster.Member{
		{Name: "a", URL: urlA},
		{Name: "b", URL: urlB},
	}, cluster.FleetOptions{ProbeInterval: time.Hour})
	if err != nil {
		return 0, err
	}
	gw, err := cluster.New(cluster.Options{Fleet: fleet, Version: "bench"})
	if err != nil {
		return 0, err
	}
	defer gw.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	gwSrv := &http.Server{Handler: gw.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go gwSrv.Serve(ln) //nolint:errcheck // reported via requests failing
	defer gwSrv.Close()
	gwURL := "http://" + ln.Addr().String()

	directURL := urlA + "/v1/allocate"
	forwardURL := gwURL + "/v1/allocate"

	// One warm round each (connection pools on every hop), then the
	// alternating measured pairs.
	if _, err := benchRound(directURL, gatewayBenchBody, http.StatusOK); err != nil {
		return 0, err
	}
	if _, err := benchRound(forwardURL, gatewayBenchBody, http.StatusOK); err != nil {
		return 0, err
	}
	var deltas []float64
	var directP99s, fwdP99s []time.Duration
	var directAll, fwdAll []time.Duration
	for r := 0; r < gatewayRounds; r++ {
		a, err := benchRound(directURL, gatewayBenchBody, http.StatusOK)
		if err != nil {
			return 0, err
		}
		b, err := benchRound(forwardURL, gatewayBenchBody, http.StatusOK)
		if err != nil {
			return 0, err
		}
		pa, pb := p99(a), p99(b)
		directP99s, fwdP99s = append(directP99s, pa), append(fwdP99s, pb)
		directAll, fwdAll = append(directAll, a...), append(fwdAll, b...)
		deltas = append(deltas, float64(pb-pa))
	}
	sort.Float64s(deltas)
	printHTTPRow(out, fwdDirectBenchKey, directP99s, directAll)
	printHTTPRow(out, fwdGatewayBenchKey, fwdP99s, fwdAll)
	return deltas[len(deltas)/2], nil
}
