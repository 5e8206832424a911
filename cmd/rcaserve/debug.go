// GET/POST /debug/soak: process introspection for the soak & chaos
// harness. The endpoint exists only when the process was started with
// -faults — it is a testing surface, not part of the serving API —
// and reports exactly the observables the harness's invariant oracle
// needs from outside the process boundary: goroutine count, open file
// descriptors, resident set size and the fault injector's schedule
// and firing counters. POST re-arms the solve-side fault schedule on
// a live process, so a scenario can turn chaos on and off mid-run
// without a restart.

package main

import (
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/faults"
)

// debugSoakJSON is the GET /debug/soak body.
type debugSoakJSON struct {
	// Goroutines and OpenFDs are the leak-check observables: the soak
	// harness samples them after warmup and before shutdown and
	// asserts the delta stays within a slack bound.
	Goroutines int `json:"goroutines"`
	OpenFDs    int `json:"openFDs"`
	// RSSBytes is the resident set size from /proc/self/statm
	// (0 where procfs is unavailable).
	RSSBytes int64 `json:"rssBytes"`
	// Faults is the injector's live schedule and firing counters.
	Faults faults.Stats `json:"faults"`
	// UptimeSeconds mirrors /v1/stats for convenience.
	UptimeSeconds float64 `json:"uptimeSeconds"`
}

// rearmJSON is the POST /debug/soak body.
type rearmJSON struct {
	// Faults is the new injection spec (see internal/faults.Parse);
	// "none" disarms without removing the endpoint.
	Faults string `json:"faults"`
}

// handleDebugSoak serves the soak introspection endpoint.
func (s *server) handleDebugSoak(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		api.WriteJSON(w, http.StatusOK, debugSoakJSON{
			Goroutines:    runtime.NumGoroutine(),
			OpenFDs:       countOpenFDs(),
			RSSBytes:      readRSSBytes(),
			Faults:        s.faults.Snapshot(),
			UptimeSeconds: time.Since(s.started).Seconds(),
		})
	case http.MethodPost:
		var req rearmJSON
		if _, err := api.DecodeBody(r, &req); err != nil {
			api.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if err := s.faults.Rearm(req.Faults); err != nil {
			api.WriteError(w, http.StatusBadRequest, "bad faults spec: %v", err)
			return
		}
		api.WriteJSON(w, http.StatusOK, s.faults.Snapshot())
	default:
		api.WriteError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// countOpenFDs counts /proc/self/fd entries; -1 where procfs is
// unavailable (non-Linux), which the harness treats as "skip the fd
// leak check".
func countOpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// readRSSBytes parses the resident field of /proc/self/statm.
func readRSSBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
