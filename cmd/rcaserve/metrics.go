// GET /metrics: the service's operational state in Prometheus text
// exposition format (version 0.0.4), hand-rendered — the repo takes
// no client-library dependency for what is a dozen Fprintf calls.
//
// Exported families cover the async pipeline stage by stage (queue
// depth and rejections, running jobs, store size and evictions,
// queue-wait/run latency histograms), the engine underneath (cache
// hits/misses, solve latency histogram, terminal outcome counters),
// HTTP serving (total plus by-route/status counts and latency
// histograms) and the process (uptime, build info, goroutines, GC
// pause, heap, open fds).

package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"dspaddr/internal/api"
)

// handleMetrics serves GET /metrics.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	jm := s.jobs.Metrics()
	es := s.engine.Stats()

	gauge := func(name, help string, v float64) {
		writeMetric(w, name, help, "gauge", v)
	}
	counter := func(name, help string, v float64) {
		writeMetric(w, name, help, "counter", v)
	}

	gauge("rcaserve_queue_depth", "Async jobs admitted but not yet running.", float64(jm.QueueDepth))
	gauge("rcaserve_queue_capacity", "Async job admission bound.", float64(jm.QueueCapacity))
	gauge("rcaserve_jobs_running", "Async jobs currently executing.", float64(jm.Running))
	gauge("rcaserve_job_runners", "Concurrent async job executor cap.", float64(jm.Runners))
	gauge("rcaserve_store_size", "Tracked async jobs (live and finished).", float64(jm.StoreSize))
	gauge("rcaserve_store_capacity", "Retained finished async job bound.", float64(jm.StoreCapacity))
	counter("rcaserve_jobs_submitted_total", "Async jobs admitted.", float64(jm.Submitted))
	counter("rcaserve_jobs_rejected_total", "Async submissions refused by admission control.", float64(jm.Rejected))
	counter("rcaserve_store_evictions_total", "Finished async jobs dropped by TTL or capacity.", float64(jm.Evicted))

	writeHeader(w, "rcaserve_jobs_finished_total", "Async jobs finished, by terminal state.", "counter")
	for _, st := range []struct {
		label string
		v     uint64
	}{
		{"done", jm.Done}, {"failed", jm.Failed},
		{"timeout", jm.TimedOut}, {"canceled", jm.Canceled},
	} {
		fmt.Fprintf(w, "rcaserve_jobs_finished_total{state=%q} %v\n", st.label, st.v)
	}

	if s.wal != nil {
		counter("rcaserve_jobs_recovered_total", "Jobs restored from the write-ahead log at boot.", float64(jm.Recovered))
		counter("rcaserve_jobs_wal_append_errors_total", "WAL appends that failed after the job was admitted (durability degraded).", float64(jm.WALAppendErrors))
		ws := s.wal.Stats()
		gauge("rcaserve_wal_segments", "Write-ahead log segment files on disk.", float64(ws.Segments))
		gauge("rcaserve_wal_size_bytes", "Write-ahead log bytes on disk across segments.", float64(ws.SizeBytes))
		counter("rcaserve_wal_records_appended_total", "Records appended to the write-ahead log.", float64(ws.Appends))
		counter("rcaserve_wal_append_errors_total", "Write-ahead log append failures (rolled back; the submission was rejected).", float64(ws.AppendErrors))
		counter("rcaserve_wal_fsyncs_total", "Write-ahead log fsync calls.", float64(ws.Fsyncs))
		counter("rcaserve_wal_fsync_errors_total", "Write-ahead log fsync failures.", float64(ws.FsyncErrors))
		counter("rcaserve_wal_compact_runs_total", "Checkpoint/compaction passes over the write-ahead log.", float64(ws.CompactRuns))
		counter("rcaserve_wal_segments_rewritten_total", "Sealed segments rewritten by compaction.", float64(ws.SegmentsRewritten))
		counter("rcaserve_wal_segments_deleted_total", "Fully expired segments deleted by compaction.", float64(ws.SegmentsDeleted))
		counter("rcaserve_wal_records_dropped_total", "Expired records dropped by compaction.", float64(ws.RecordsDropped))
		counter("rcaserve_wal_replay_torn_bytes", "Bytes truncated off damaged segments at boot replay.", float64(ws.Replay.TornBytes))
		counter("rcaserve_wal_replay_segments_dropped", "Whole segments discarded at boot replay (prefix semantics).", float64(ws.Replay.SegmentsDropped))
		s.obs.walAppendHist.Expose(w)
		s.obs.walFsyncHist.Expose(w)
		s.obs.walReplayHist.Expose(w)
	}

	s.jobs.QueueWaitHistogram().Expose(w)
	s.jobs.RunHistogram().Expose(w)

	gauge("rcaserve_engine_workers", "Solver worker pool size.", float64(es.Workers))
	counter("rcaserve_engine_jobs_total", "Engine jobs completed, any outcome.", float64(es.Jobs))
	counter("rcaserve_engine_cache_hits_total", "Engine jobs answered from the canonical-pattern cache.", float64(es.CacheHits))
	counter("rcaserve_engine_cache_misses_total", "Engine jobs that ran the solver.", float64(es.CacheMisses))
	counter("rcaserve_engine_errors_total", "Engine jobs failed by the allocator or a bad request.", float64(es.Errors))
	counter("rcaserve_engine_timeouts_total", "Engine jobs abandoned past the per-job deadline.", float64(es.Timeouts))
	counter("rcaserve_engine_canceled_total", "Engine jobs whose submitting context was canceled.", float64(es.Canceled))
	gauge("rcaserve_engine_cache_entries", "Cached canonical results across all shards.", float64(es.CacheEntries))
	gauge("rcaserve_engine_cache_capacity", "Total canonical result cache bound (0 when caching is disabled).", float64(es.CacheCapacity))
	gauge("rcaserve_engine_cache_shards", "Result cache lock domains (power of two).", float64(es.CacheShards))
	s.engine.SolveHistogram().Expose(w)

	shedding := 0.0
	if es.Shedding {
		shedding = 1
	}
	gauge("rcaserve_shedding", "Adaptive load-shedding verdict: 1 while the sync paths reject with 503.", shedding)
	counter("rcaserve_shed_flips_total", "Load-shedding verdict transitions, both directions.", float64(es.ShedFlips))
	counter("rcaserve_shed_total", "Synchronous requests rejected by adaptive load shedding.", float64(s.sheds.Load()))

	counter("rcaserve_http_requests_total", "HTTP requests served.", float64(s.requests.Load()))
	s.obs.httpReqs.Expose(w)
	s.obs.httpHist.Expose(w)

	gauge("rcaserve_uptime_seconds", "Seconds since process start.", time.Since(s.started).Seconds())
	writeHeader(w, "rcaserve_build_info", "Build identity; the value is always 1.", "gauge")
	fmt.Fprintf(w, "rcaserve_build_info{version=%q} 1\n", s.version)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gauge("rcaserve_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	counter("rcaserve_gc_pause_seconds_total", "Cumulative stop-the-world GC pause.", float64(ms.PauseTotalNs)/1e9)
	gauge("rcaserve_heap_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	if fds := countOpenFDs(); fds >= 0 {
		gauge("rcaserve_open_fds", "Open file descriptors (procfs; absent elsewhere).", float64(fds))
	}
}

// writeHeader emits one family's HELP/TYPE preamble.
func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, strings.ReplaceAll(help, "\n", " "), name, typ)
}

// writeMetric emits a single-sample family.
func writeMetric(w io.Writer, name, help, typ string, v float64) {
	writeHeader(w, name, help, typ)
	fmt.Fprintf(w, "%s %v\n", name, v)
}
