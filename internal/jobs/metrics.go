// Aggregate queue/store metrics: cheap atomic counters on the hot
// path, stage-latency percentiles from the manager's native
// histograms — covering the two stages the engine cannot see: queue
// wait (submission to dispatch) and run time (dispatch to
// completion).

package jobs

import (
	"math"
	"time"

	"dspaddr/internal/obs"
)

// Metrics is a point-in-time snapshot of a Manager's counters; every
// field maps onto a Prometheus sample in the serving layer.
type Metrics struct {
	// QueueDepth is the number of queued (admitted, not yet started)
	// jobs; QueueCapacity is the admission bound.
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	// Running is the number of jobs currently executing; Runners is
	// its cap.
	Running int `json:"running"`
	Runners int `json:"runners"`
	// StoreSize is the number of tracked jobs (live and finished);
	// StoreCapacity bounds the finished ones.
	StoreSize     int `json:"storeSize"`
	StoreCapacity int `json:"storeCapacity"`
	// Submitted counts admitted jobs; Rejected counts submissions
	// (not jobs) refused by admission control; Evicted counts
	// finished jobs dropped by TTL or capacity.
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
	Evicted   uint64 `json:"evicted"`
	// Terminal-state counters.
	Done     uint64 `json:"done"`
	Failed   uint64 `json:"failed"`
	TimedOut uint64 `json:"timedOut"`
	Canceled uint64 `json:"canceled"`
	// Recovered counts jobs restored from the write-ahead log at boot
	// (also included in Submitted and the per-state counters);
	// WALAppendErrors counts log appends that failed after the job was
	// admitted — non-zero means durability is degraded.
	Recovered       uint64 `json:"recovered"`
	WALAppendErrors uint64 `json:"walAppendErrors"`
	// Stage latency percentiles in microseconds over every job since
	// start, interpolated within the stage histogram's buckets: queue
	// wait (submission → dispatch) and run time (dispatch →
	// completion).
	QueueWaitP50Micros float64 `json:"queueWaitP50Micros"`
	QueueWaitP90Micros float64 `json:"queueWaitP90Micros"`
	QueueWaitP99Micros float64 `json:"queueWaitP99Micros"`
	RunP50Micros       float64 `json:"runP50Micros"`
	RunP90Micros       float64 `json:"runP90Micros"`
	RunP99Micros       float64 `json:"runP99Micros"`
}

// Retry-After bounds: at least one second so clients never hot-loop,
// at most a minute so a drained queue is rediscovered promptly even
// after a pathological backlog estimate.
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 60
)

// RetryAfterSeconds estimates how long a rejected submitter should
// wait before retrying: the time the current backlog needs to drain,
// i.e. the median job run time × queue depth / runner count (the
// Prometheus identity histogram_quantile(0.5,
// rcaserve_job_run_duration_seconds_bucket) × rcaserve_queue_depth /
// rcaserve_job_runners), rounded up and clamped
// to [1, 60] seconds. With no run-time observations yet (cold start)
// it falls back to the minimum — there is nothing to wait for.
func (m Metrics) RetryAfterSeconds() int {
	runSeconds := m.RunP50Micros / 1e6
	if runSeconds <= 0 || m.QueueDepth <= 0 {
		return minRetryAfterSeconds
	}
	runners := m.Runners
	if runners < 1 {
		runners = 1
	}
	secs := int(math.Ceil(runSeconds * float64(m.QueueDepth) / float64(runners)))
	if secs < minRetryAfterSeconds {
		return minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		return maxRetryAfterSeconds
	}
	return secs
}

// RetryAfterSeconds is the manager-level form of
// Metrics.RetryAfterSeconds for the 429 rejection path: it reads only
// the three inputs the estimate needs (run-time p50, queue depth,
// runner count) instead of snapshotting every counter and both
// latency histograms — the rejection path runs hottest exactly when
// the service is most loaded.
func (m *Manager) RetryAfterSeconds() int {
	return Metrics{
		RunP50Micros: micros(m.runHist.Quantile(0.50)),
		QueueDepth:   int(m.depth.Load()),
		Runners:      m.opts.Runners,
	}.RetryAfterSeconds()
}

// Metrics returns a snapshot of the manager's aggregate state.
func (m *Manager) Metrics() Metrics {
	out := Metrics{
		QueueDepth:      int(m.depth.Load()),
		QueueCapacity:   m.opts.QueueCapacity,
		Running:         int(m.running.Load()),
		Runners:         m.opts.Runners,
		StoreSize:       int(m.store.size.Load()),
		StoreCapacity:   m.opts.StoreCapacity,
		Submitted:       m.submitted.Load(),
		Rejected:        m.rejected.Load(),
		Evicted:         m.store.evictions.Load(),
		Done:            m.done.Load(),
		Failed:          m.failed.Load(),
		TimedOut:        m.timedOut.Load(),
		Canceled:        m.canceled.Load(),
		Recovered:       m.recovered.Load(),
		WALAppendErrors: m.walErrs.Load(),
	}
	out.QueueWaitP50Micros = micros(m.waitHist.Quantile(0.50))
	out.QueueWaitP90Micros = micros(m.waitHist.Quantile(0.90))
	out.QueueWaitP99Micros = micros(m.waitHist.Quantile(0.99))
	out.RunP50Micros = micros(m.runHist.Quantile(0.50))
	out.RunP90Micros = micros(m.runHist.Quantile(0.90))
	out.RunP99Micros = micros(m.runHist.Quantile(0.99))
	return out
}

// QueueWaitHistogram and RunHistogram are the stage-latency
// histograms behind the Metrics percentiles, for the serving layer's
// /metrics exposition.
func (m *Manager) QueueWaitHistogram() *obs.Histogram { return m.waitHist }
func (m *Manager) RunHistogram() *obs.Histogram       { return m.runHist }

// micros renders a duration in (fractional) microseconds.
func micros(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}
