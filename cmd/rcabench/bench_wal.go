// Durable-submit gate (-exp bench, the jobs/submit-* scenarios):
// the cost of the write-ahead log on the async submit path, measured
// where users feel it — a loopback HTTP submit route over
// jobs.Manager, hit by concurrent clients — rather than as a raw
// in-memory SubmitAll, whose sub-microsecond denominator would make
// any durable write look like a multiple instead of a tax.
//
// Tail latency at millisecond scale is scheduler- and GC-noise
// dominated, so the gate statistic is built to cancel environment
// drift twice over: the no-WAL and WAL servers run simultaneously and
// are measured in strictly alternating rounds, each adjacent pair of
// rounds yields one p99 ratio, and the gate takes the MEDIAN of those
// per-pair ratios. A stall that fattens one round's tail lands inside
// its own pair; a drifting machine moves both sides of every pair.
// A pooled p99 across the whole run — one bad burst away from a 50%
// swing — is deliberately not used; each printed row shows the median
// per-round p99 instead.
//
// The gated pair keeps its WAL on RAM-backed storage (/dev/shm when
// present): a regression gate guards the implementation's CPU,
// allocation and syscall cost, not the benchmark device's writeback
// tails. The fsync=always scenario runs on the real temp filesystem
// and is printed ungated — an fsync per submit costs whatever the
// disk charges, which is a policy choice, not a code property.

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/jobs"
	"dspaddr/internal/wal"
)

const (
	submitNoWALBenchKey     = "jobs/submit-nowal/http4"
	submitWALBenchKey       = "jobs/submit-wal/http4"
	submitWALAlwaysBenchKey = "jobs/submit-wal-always/http4"
)

// walOverheadTolerance bounds the durable (fsync=interval) submit p99
// against the in-memory submit p99, as the median of paired
// interleaved-round ratios from the same run.
const walOverheadTolerance = 0.15

const (
	// submitClients concurrent request loops per server (the /http4 in
	// the scenario keys).
	submitClients = 4
	// submitPerRound requests each client fires per measurement round.
	submitPerRound = 50
	// submitRounds alternating round pairs; each pair contributes one
	// p99 ratio to the gate's median.
	submitRounds = 60
	// submitAlwaysRounds for the informational fsync=always scenario,
	// kept short because every request pays a real fsync.
	submitAlwaysRounds = 4
)

// submitBenchBody is the request every client posts: the paper's
// example as a real POST /v1/jobs body, so the WAL'd side serializes
// the bytes rcaserve would.
var submitBenchBody = []byte(`{"pattern": {"offsets": [1, 0, 2, -1, 1, 0, -2]}, "agu": {"registers": 2, "modifyRange": 1}, "priority": 3}`)

// submitServer is one side of the comparison: rcaserve's submit path
// without the engine — the api decoder, entry rule and WAL codecs over
// a jobs.Manager with a no-op runner — on a loopback listener.
type submitServer struct {
	mgr *jobs.Manager
	srv *http.Server
	url string
}

// newSubmitServer builds and starts one side. dir == "" means no WAL.
func newSubmitServer(dir string, policy wal.FsyncPolicy) (*submitServer, error) {
	opts := jobs.Options{
		QueueCapacity: 1 << 15,
		StoreCapacity: 1 << 15,
		Runners:       2,
		Run:           func(context.Context, any) (any, error) { return nil, nil },
	}
	if dir != "" {
		wlog, _, err := wal.Open(dir, wal.Options{Fsync: policy})
		if err != nil {
			return nil, err
		}
		opts.WAL = wlog
		opts.EncodePayload = api.EncodeRecord
		opts.DecodePayload = api.DecodeJobPayload
		opts.EncodeResult = api.EncodeRecord
		opts.DecodeResult = api.DecodeJobResult
	}
	m := jobs.New(opts)

	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sub api.Submit
		if _, err := api.DecodeBody(r, &sub); err != nil {
			api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		entries, err := sub.Entries()
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		payloads := make([]any, len(entries))
		for i, job := range entries {
			payloads[i] = job
		}
		ids, err := m.SubmitAll(payloads, sub.Priority)
		if err != nil {
			api.WriteError(w, http.StatusServiceUnavailable, "submission failed: %v", err)
			return
		}
		api.WriteJSON(w, http.StatusAccepted, api.SubmitResponse{ID: ids[0], IDs: ids})
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	s := &submitServer{
		mgr: m,
		srv: &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second},
		url: "http://" + ln.Addr().String(),
	}
	go s.srv.Serve(ln) //nolint:errcheck // reported via requests failing
	return s, nil
}

func (s *submitServer) close() {
	s.srv.Close()
	s.mgr.Close()
}

// submitRound fires submitPerRound requests from submitClients
// concurrent loops and returns every request's latency.
func submitRound(url string) ([]time.Duration, error) {
	return benchRound(url, submitBenchBody, http.StatusAccepted)
}

// benchRound is the shared measured round: submitPerRound POSTs from
// submitClients concurrent loops, every request's latency returned.
func benchRound(url string, body []byte, wantStatus int) ([]time.Duration, error) {
	var mu sync.Mutex
	var durs []time.Duration
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < submitClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			local := make([]time.Duration, 0, submitPerRound)
			for i := 0; i < submitPerRound; i++ {
				start := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err == nil {
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != wantStatus {
						err = fmt.Errorf("status %d, want %d", resp.StatusCode, wantStatus)
					}
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(start))
			}
			mu.Lock()
			durs = append(durs, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return durs, firstErr
}

// p99 returns the 99th-percentile sample; durs is sorted in place.
func p99(durs []time.Duration) time.Duration {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)*99/100]
}

// printHTTPRow prints one side's samples: the overall mean and the
// median of the per-round p99s (a level estimate robust to
// single-round stalls, matching the gate's pairing logic).
func printHTTPRow(out io.Writer, name string, roundP99s, all []time.Duration) {
	var total time.Duration
	for _, d := range all {
		total += d
	}
	sorted := append([]time.Duration(nil), roundP99s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	fmt.Fprintf(out, "  %-28s %11.0f ns/op %11d p99 ns/op\n",
		name, float64(total.Nanoseconds())/float64(len(all)), sorted[len(sorted)/2].Nanoseconds())
}

// walBenchDir picks where the gated scenarios keep their log:
// RAM-backed when the host has /dev/shm, the regular temp dir
// otherwise (see the file comment for why).
func walBenchDir() (string, error) {
	parent := ""
	if fi, err := os.Stat("/dev/shm"); err == nil && fi.IsDir() {
		parent = "/dev/shm"
	}
	return os.MkdirTemp(parent, "rcabench-wal-*")
}

// measureSubmitScenarios runs the interleaved no-WAL/WAL comparison
// plus the informational fsync=always pass, prints the three rows and
// returns the gated statistic: the median paired-round p99 overhead
// of the WAL'd side, in percent.
func measureSubmitScenarios(out io.Writer) (float64, error) {
	noSrv, err := newSubmitServer("", 0)
	if err != nil {
		return 0, err
	}
	defer noSrv.close()
	dir, err := walBenchDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	walSrv, err := newSubmitServer(dir, wal.FsyncInterval)
	if err != nil {
		return 0, err
	}
	defer walSrv.close()

	// One warm round each (connection pools, allocator, JIT-warm
	// inlining of the route), then the alternating measured pairs.
	if _, err := submitRound(noSrv.url); err != nil {
		return 0, err
	}
	if _, err := submitRound(walSrv.url); err != nil {
		return 0, err
	}
	var ratios []float64
	var noP99s, walP99s []time.Duration
	var noAll, walAll []time.Duration
	for r := 0; r < submitRounds; r++ {
		a, err := submitRound(noSrv.url)
		if err != nil {
			return 0, err
		}
		b, err := submitRound(walSrv.url)
		if err != nil {
			return 0, err
		}
		pa, pb := p99(a), p99(b)
		noP99s, walP99s = append(noP99s, pa), append(walP99s, pb)
		noAll, walAll = append(noAll, a...), append(walAll, b...)
		ratios = append(ratios, float64(pb)/float64(pa))
	}
	sort.Float64s(ratios)
	printHTTPRow(out, submitNoWALBenchKey, noP99s, noAll)
	printHTTPRow(out, submitWALBenchKey, walP99s, walAll)

	// fsync=always, on the real temp filesystem, ungated.
	alwaysDir, err := os.MkdirTemp("", "rcabench-wal-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(alwaysDir)
	alwaysSrv, err := newSubmitServer(alwaysDir, wal.FsyncAlways)
	if err != nil {
		return 0, err
	}
	defer alwaysSrv.close()
	var aP99s, aAll []time.Duration
	for r := 0; r < submitAlwaysRounds; r++ {
		a, err := submitRound(alwaysSrv.url)
		if err != nil {
			return 0, err
		}
		aP99s, aAll = append(aP99s, p99(a)), append(aAll, a...)
	}
	printHTTPRow(out, submitWALAlwaysBenchKey, aP99s, aAll)
	return (ratios[len(ratios)/2] - 1) * 100, nil
}
