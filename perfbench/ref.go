package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// The host's speed.
//
// The benchmark was written on a virtual machine whose host is shared,
// and the host's load moved the speed of the same code by 20-40%
// between runs a minute apart: more than any bound a gated metric may
// have. A run therefore also measures a reference server that belongs
// to the benchmark and never changes: the benchmark binary itself,
// serving JSON requests shaped like the allocator's (decode, hash,
// sort, indented encode) over the same loopback HTTP, from the same
// two-connection client, which decodes each answer. It is measured closed-loop for a second three times in a
// run — before the open loop, between the loops, after the closed loop
// — and the median of the three, over refNominal, is the run's host
// speed. The timing metrics are reported at refNominal speed: times
// multiplied, rates divided by the host speed. The raw figures are
// printed beside them.

// refFlag makes the benchmark binary act as the reference server.
const refFlag = "-reference-server"

// refNominal is the reference server's closed-loop ops/s on the
// machine the benchmark was written on (2 vCPUs, x86-64).
const refNominal = 6000.0

// refSeconds is the length of one reference measurement.
const refSeconds = 1.0

type refDoc struct {
	Offsets   []int   `json:"offsets"`
	Registers [][]int `json:"registers"`
	Report    string  `json:"report"`
}

// refBody is the reference request: about the size of a warm-sync
// answer.
var refBody = func() []byte {
	doc := make([]refDoc, 4)
	for i := range doc {
		doc[i].Offsets = make([]int, 24)
		for j := range doc[i].Offsets {
			doc[i].Offsets[j] = (i*31+j*17)%23 - 11
		}
		doc[i].Registers = [][]int{doc[i].Offsets[:12], doc[i].Offsets[12:]}
		doc[i].Report = "pattern: reference document of the benchmark's host speed measurement"
	}
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err) // ints and strings always encode
	}
	return b
}()

// referenceServer is the reference server's main: POST /ref decodes
// the document, hashes and sorts it, and answers it indented.
func referenceServer(args []string) error {
	fs := flag.NewFlagSet("reference", flag.ContinueOnError)
	addr := fs.String("addr", "", "listen address")
	fs.Bool("reference-server", true, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ref", func(w http.ResponseWriter, r *http.Request) {
		var doc []refDoc
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var keys []int
		for _, d := range doc {
			keys = append(keys, d.Offsets...)
		}
		sort.Ints(keys)
		sum := sha256.Sum256([]byte(fmt.Sprint(keys)))
		doc[0].Report = fmt.Sprintf("%x", sum[:8])
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc) //nolint:errcheck // client gone
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ok") })
	srv := &http.Server{Addr: *addr, Handler: mux}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// startReference execs the reference server in dir.
func startReference(dir string) (*proc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	p, err := startProc(self, "reference", dir, ports[0], refFlag)
	if err != nil {
		return nil, err
	}
	if err := p.waitHealthy("ok", 10*time.Second); err != nil {
		p.kill()
		return nil, err
	}
	// Warm it up: the first requests of a fresh process pay for its
	// heap and connections.
	if _, err := measureReference(p, refSeconds/5); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// measureReference runs the reference server closed-loop on two
// connections for seconds and returns its ops/s.
func measureReference(p *proc, seconds float64) (float64, error) {
	c := newClient(p.base)
	defer c.close()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	done := make(chan int, conns)
	errc := make(chan error, conns)
	start := time.Now()
	for w := 0; w < conns; w++ {
		go func() {
			var buf bytes.Buffer
			n := 0
			for time.Now().Before(deadline) {
				status, err := c.do(http.MethodPost, "/ref", refBody, &buf)
				var doc []refDoc
				if err == nil && status == http.StatusOK {
					// Decode the answer, as the load generator does.
					err = json.Unmarshal(buf.Bytes(), &doc)
				}
				if err != nil || status != http.StatusOK {
					errc <- fmt.Errorf("reference server: status %d, %v", status, err)
					return
				}
				n++
			}
			done <- n
		}()
	}
	total := 0
	for w := 0; w < conns; w++ {
		select {
		case n := <-done:
			total += n
		case err := <-errc:
			return 0, err
		}
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

// refDir is where the reference server's log goes.
func refDir(dir string) string { return filepath.Join(dir, "reference") }
