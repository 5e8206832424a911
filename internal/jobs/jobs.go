// Package jobs is the asynchronous job queue and result store that
// turns a blocking executor into a submit/poll lifecycle.
//
// A Manager owns three pieces: an admission-controlled priority queue
// (queue.go), a pool of dispatcher goroutines that pull queued jobs
// and run them through the caller-supplied Runner, and a sharded
// in-memory result store with TTL and capacity eviction (store.go).
// Every job moves through the state machine
//
//	queued ──▶ running ──▶ done | failed | timeout | canceled
//	   └────────────────────────────────────────────▶ canceled
//
// with its queue-wait and run latency recorded, both per job (Status)
// and in aggregate (Metrics).
//
// The package is deliberately payload-agnostic: Submit takes an
// opaque payload and the Runner interprets it, so the same manager
// serves engine requests, whole-loop jobs or anything else without
// this package importing them. Error-to-state classification is
// likewise pluggable (Options.FailState) so callers can map their
// executor's timeout error to StateTimeout.
package jobs

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dspaddr/internal/obs"
	"dspaddr/internal/wal"
)

// State is a job's position in the lifecycle.
type State string

// The job states. Queued and Running are transient; the other four
// are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateTimeout  State = "timeout"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateTimeout, StateCanceled:
		return true
	}
	return false
}

// ValidState reports whether s names a real job state; useful for
// validating listing filters from the wire.
func ValidState(s State) bool {
	switch s {
	case StateQueued, StateRunning:
		return true
	}
	return s.Terminal()
}

// Errors beyond the store's lookup errors (ErrNotFound, ErrEvicted)
// and the queue's ErrQueueFull.
var (
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrShuttingDown is returned by Submit during a graceful drain:
	// the manager still finishes admitted work but accepts no more. It
	// wraps ErrClosed so errors.Is(err, ErrClosed) keeps matching both;
	// the serving layer distinguishes them to answer 503 + Retry-After
	// (come back after the restart) instead of a bare refusal.
	ErrShuttingDown = fmt.Errorf("jobs: shutting down: %w", ErrClosed)
	// ErrFinished is returned by Cancel for an already-terminal job.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrShutdown is the failure reason recorded on jobs the manager
	// aborted because it was shutting down — distinguishable from a
	// client-requested cancel, so a poller (or a soak oracle) can tell
	// "the server stopped" from "someone canceled me".
	ErrShutdown = errors.New("jobs: aborted by shutdown")
)

// Runner executes one job payload. The context is canceled when the
// job is canceled or the manager shuts down; a Runner that honors it
// makes DELETE effective against running work. When the job was
// admitted with a trace ID (SubmitTraced), ContextTraceID recovers it
// from the Runner's context.
type Runner func(ctx context.Context, payload any) (any, error)

// traceIDKey keys the submitting request's trace ID in a runner
// context.
type traceIDKey struct{}

func withTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// ContextTraceID returns the trace ID the job was submitted with, ""
// when none.
func ContextTraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// Defaults for zero Options fields.
const (
	DefaultQueueCapacity = 1024
	DefaultStoreCapacity = 16384
	DefaultTTL           = 15 * time.Minute
	DefaultRunners       = 8
)

// Options configures a Manager.
type Options struct {
	// QueueCapacity bounds admitted-but-not-started jobs; a
	// submission that does not fit is rejected with ErrQueueFull.
	// 0 means DefaultQueueCapacity.
	QueueCapacity int
	// StoreCapacity bounds retained finished jobs; the oldest are
	// evicted first. 0 means DefaultStoreCapacity.
	StoreCapacity int
	// TTL is how long a finished job's status and result stay
	// fetchable. 0 means DefaultTTL.
	TTL time.Duration
	// Runners is the number of concurrent dispatcher goroutines —
	// the cap on jobs in StateRunning. 0 means DefaultRunners.
	Runners int
	// NodeTag, when non-empty, is embedded in every issued job ID
	// (j-<tag>-<prefix>-<seq> instead of j-<prefix>-<seq>) so a cluster
	// gateway can route an ID back to the node that owns it (NodeOf).
	// Must be non-empty alphanumeric — '-' would break ID parsing, so
	// New panics on one.
	NodeTag string
	// Run executes payloads; required.
	Run Runner
	// FailState optionally classifies a Runner error into a terminal
	// state; returning "" falls through to the default (canceled
	// contexts map to StateCanceled, deadline errors to StateTimeout,
	// everything else to StateFailed).
	FailState func(error) State
	// WAL, when non-nil, makes every admission and terminal transition
	// durable: a submission is appended to the log before it is
	// queued (and before the caller gets its IDs back), and a finish
	// is appended before the terminal state becomes visible wherever
	// the transition ordering allows it. The manager takes ownership
	// and closes the log in Close. Requires all four codecs below.
	WAL *wal.Log
	// Recovered is the job set replayed from the WAL at boot (see
	// wal.Open): terminal jobs are restored straight into the result
	// store, still-queued ones are re-enqueued — above QueueCapacity
	// if need be, since they were admitted before the crash — ahead of
	// the dispatchers starting.
	Recovered []wal.JobState
	// The codecs translate between the manager's opaque payload/result
	// values and the WAL's durable bytes. Required when WAL is set
	// (New panics otherwise); unused without it.
	EncodePayload func(any) ([]byte, error)
	DecodePayload func([]byte) (any, error)
	EncodeResult  func(any) ([]byte, error)
	DecodeResult  func([]byte) (any, error)
}

func (o Options) withDefaults() Options {
	if o.QueueCapacity <= 0 {
		o.QueueCapacity = DefaultQueueCapacity
	}
	if o.StoreCapacity <= 0 {
		o.StoreCapacity = DefaultStoreCapacity
	}
	if o.TTL <= 0 {
		o.TTL = DefaultTTL
	}
	if o.Runners <= 0 {
		o.Runners = DefaultRunners
	}
	return o
}

// record is one job's mutable state. id, seq, priority, payload and
// submitted are immutable after creation; elem and expire belong to
// the store (guarded by its shard lock); everything else is guarded
// by mu.
type record struct {
	id        string
	seq       uint64
	priority  int
	payload   any
	submitted time.Time
	// traceID links the job back to the HTTP request that submitted
	// it ("" when the submitter carried no trace). Immutable.
	traceID string

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	result   any
	err      error
	cancel   context.CancelFunc // non-nil exactly while running

	// Store bookkeeping, guarded by the owning shard's lock.
	elem   *list.Element
	expire time.Time
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	// ID is the job's opaque identifier.
	ID string
	// State is the lifecycle state at snapshot time.
	State State
	// Priority is the submission priority (higher runs first).
	Priority int
	// SubmittedAt, StartedAt and FinishedAt are the lifecycle
	// timestamps; StartedAt/FinishedAt are zero until reached.
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	// QueueWait is the time from submission to dispatch — still
	// growing for a queued job.
	QueueWait time.Duration
	// RunTime is the time from dispatch to completion — still
	// growing for a running job, zero for one canceled in queue.
	RunTime time.Duration
	// Result is the Runner's return value; non-nil only in StateDone.
	Result any
	// Err is the failure; non-nil in the failed/timeout states, for
	// canceled jobs that had started running, and for jobs aborted by
	// shutdown (ErrShutdown).
	Err error
	// TraceID is the trace identifier of the submitting request, ""
	// when none was carried.
	TraceID string
}

// snapshot renders the record at time now.
func (r *record) snapshot(now time.Time) Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		ID:          r.id,
		State:       r.state,
		Priority:    r.priority,
		SubmittedAt: r.submitted,
		StartedAt:   r.started,
		FinishedAt:  r.finished,
		Result:      r.result,
		Err:         r.err,
		TraceID:     r.traceID,
	}
	switch {
	case !r.started.IsZero():
		st.QueueWait = r.started.Sub(r.submitted)
		if !r.finished.IsZero() {
			st.RunTime = r.finished.Sub(r.started)
		} else {
			st.RunTime = now.Sub(r.started)
		}
	case !r.finished.IsZero(): // canceled straight out of the queue
		st.QueueWait = r.finished.Sub(r.submitted)
	default:
		st.QueueWait = now.Sub(r.submitted)
	}
	return st
}

// Manager is the asynchronous job engine: bounded admission, priority
// dispatch, per-job status and a TTL'd result store. Create one with
// New and release it with Close. All methods are safe for concurrent
// use.
type Manager struct {
	opts  Options
	queue *queue
	store *store

	// Stage-latency histograms behind the Metrics percentiles, the
	// 429 Retry-After estimate and the /metrics families.
	waitHist *obs.Histogram
	runHist  *obs.Histogram

	prefix string // random per-manager ID prefix
	// idFmt is the Sprintf format issuing IDs: "j-<prefix>-%08x", or
	// "j-<tag>-<prefix>-%08x" when Options.NodeTag names this node.
	idFmt   string
	seq     atomic.Uint64
	depth   atomic.Int64 // jobs in StateQueued
	running atomic.Int64

	submitted atomic.Uint64
	rejected  atomic.Uint64
	done      atomic.Uint64
	failed    atomic.Uint64
	timedOut  atomic.Uint64
	canceled  atomic.Uint64
	// recovered counts jobs restored from the WAL at boot (each also
	// counted into submitted and, when terminal, its state counter, so
	// the submitted == terminals + queued + running identity holds
	// across a restart). walErrs counts WAL appends that failed after
	// the job was already admitted — durability degraded, service up.
	recovered atomic.Uint64
	walErrs   atomic.Uint64

	// baseCtx parents every job context, so Close cancels all
	// running work with one call — including a job a dispatcher is
	// just now starting, which a walk over running records would
	// race past.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// closeMu orders submissions against Close: submitters hold the
	// read side across the closed-check and the queue push, so once
	// Close has held the write side, no new record can slip into the
	// queue after the drain (where it would sit queued forever with
	// the dispatchers gone — or block the submitter on a stale ready
	// token). Dispatchers hold it likewise from their closed-check to
	// a job's start, so no job starts under a canceled base context.
	closeMu   sync.RWMutex
	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}

	// draining closes before closed during a graceful Shutdown: it
	// stops admission (submitters see ErrClosed) while the dispatchers
	// keep working the backlog, so in-flight jobs finish instead of
	// being canceled the instant the listener stops.
	drainOnce sync.Once
	draining  chan struct{}
}

// New starts a manager with its dispatcher pool and TTL janitor. The
// caller must Close it when done. It panics if opts.Run is nil — a
// manager without an executor is a programming error, not a runtime
// condition.
func New(opts Options) *Manager {
	if opts.Run == nil {
		panic("jobs: Options.Run is required")
	}
	if opts.WAL != nil && (opts.EncodePayload == nil || opts.DecodePayload == nil ||
		opts.EncodeResult == nil || opts.DecodeResult == nil) {
		panic("jobs: Options.WAL requires the payload and result codecs")
	}
	if strings.ContainsRune(opts.NodeTag, '-') {
		panic("jobs: Options.NodeTag must not contain '-'")
	}
	opts = opts.withDefaults()
	// Recovered queued jobs re-enter above the admission bound (they
	// were admitted before the crash); the ready channel needs a slot
	// for each or the recovery pushes would block.
	extraReady := 0
	for i := range opts.Recovered {
		if !opts.Recovered[i].State.Terminal() {
			extraReady++
		}
	}
	var pfx [4]byte
	rand.Read(pfx[:]) //nolint:errcheck // crypto/rand never fails
	m := &Manager{
		opts:     opts,
		queue:    newQueue(opts.QueueCapacity, extraReady),
		store:    newStore(opts.StoreCapacity, opts.TTL),
		prefix:   hex.EncodeToString(pfx[:]),
		closed:   make(chan struct{}),
		draining: make(chan struct{}),
		waitHist: obs.NewHistogram("rcaserve_job_queue_wait_duration_seconds",
			"Async job queue wait (submission to dispatch).", nil),
		runHist: obs.NewHistogram("rcaserve_job_run_duration_seconds",
			"Async job run time (dispatch to completion).", nil),
	}
	if opts.NodeTag != "" {
		m.idFmt = "j-" + opts.NodeTag + "-" + m.prefix + "-%08x"
	} else {
		m.idFmt = "j-" + m.prefix + "-%08x"
	}
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	// Recovery runs before the dispatchers exist, so replayed jobs are
	// queued (and findable) before the first new submission can race
	// them.
	if len(opts.Recovered) > 0 {
		m.recover(opts.Recovered)
	}
	for i := 0; i < opts.Runners; i++ {
		m.wg.Add(1)
		go m.dispatch()
	}
	m.wg.Add(1)
	go m.janitor()
	return m
}

// recover restores WAL-replayed jobs: terminal ones go straight into
// the result store under their original IDs and expiries, live ones
// are re-enqueued in replay (= original submit) order. Every restored
// job counts into submitted and its state counter, so the aggregate
// identity a monitor checks (submitted == terminals + queued +
// running) survives the restart.
func (m *Manager) recover(states []wal.JobState) {
	now := time.Now()
	var requeue []*record
	for i := range states {
		js := &states[i]
		rec := &record{
			id:        js.ID,
			seq:       m.seq.Add(1),
			priority:  js.Priority,
			payload:   nil,
			submitted: js.SubmittedAt,
			traceID:   js.TraceID,
		}
		if js.State.Terminal() {
			expire := js.ExpireAt
			if expire.IsZero() {
				// A cancel logged without its finish (the process died in
				// between) has no recorded expiry; stamp a fresh TTL.
				expire = now.Add(m.opts.TTL)
			}
			if !expire.After(now) {
				continue // result already expired; nothing to restore
			}
			rec.state = recoveredState(js.State)
			rec.finished = js.FinishedAt
			if rec.finished.IsZero() {
				rec.finished = now
			}
			if js.Err != "" {
				rec.err = recoveredError(js.Err)
			}
			if js.State == wal.StateDone && len(js.Result) > 0 {
				if v, err := m.opts.DecodeResult(js.Result); err == nil {
					rec.result = v
				} else {
					m.walErrs.Add(1) // keep the state, drop the undecodable body
				}
			}
			m.store.put(rec)
			m.store.finish(rec, expire)
			m.submitted.Add(1)
			m.recovered.Add(1)
			switch rec.state {
			case StateDone:
				m.done.Add(1)
			case StateTimeout:
				m.timedOut.Add(1)
			case StateCanceled:
				m.canceled.Add(1)
			default:
				m.failed.Add(1)
			}
			continue
		}
		payload, err := m.opts.DecodePayload(js.Payload)
		if err != nil {
			// A durable submission whose payload no longer decodes cannot
			// run; fail it visibly (and durably) rather than drop it.
			rec.state = StateFailed
			rec.finished = now
			rec.err = fmt.Errorf("jobs: recovered payload undecodable: %w", err)
			m.store.put(rec)
			m.store.finish(rec, now.Add(m.opts.TTL))
			m.submitted.Add(1)
			m.recovered.Add(1)
			m.failed.Add(1)
			m.walFinish(m.buildFinish(rec.id, StateFailed, now, now.Add(m.opts.TTL), rec.err, nil))
			continue
		}
		rec.payload = payload
		rec.state = StateQueued
		requeue = append(requeue, rec)
	}
	if len(requeue) > 0 {
		m.queue.pushRecovered(requeue, m.store.put)
		m.depth.Add(int64(len(requeue)))
		m.submitted.Add(uint64(len(requeue)))
		m.recovered.Add(uint64(len(requeue)))
	}
}

// recoveredState maps a WAL terminal state onto the manager's.
func recoveredState(s wal.State) State {
	switch s {
	case wal.StateDone:
		return StateDone
	case wal.StateTimeout:
		return StateTimeout
	case wal.StateCanceled:
		return StateCanceled
	}
	return StateFailed
}

// recoveredError rehydrates a logged failure reason, mapping the
// shutdown sentinel's text back onto the sentinel so errors.Is keeps
// working across a restart.
func recoveredError(text string) error {
	if text == ErrShutdown.Error() {
		return ErrShutdown
	}
	return errors.New(text)
}

// Close stops accepting submissions, cancels running jobs, marks
// still-queued jobs canceled with ErrShutdown as the reason and waits
// for the dispatchers to drain. Idempotent.
func (m *Manager) Close() {
	m.drainOnce.Do(func() {
		m.closeMu.Lock()
		close(m.draining)
		m.closeMu.Unlock()
	})
	m.closeOnce.Do(func() {
		m.closeMu.Lock()
		close(m.closed)
		m.baseCancel()
		m.closeMu.Unlock()
	})
	now := time.Now()
	// Drained records transition first, then their finish records go to
	// the WAL in one batch — one append (and at most one fsync) instead
	// of a per-job storm for a deep queue.
	var frs []wal.FinishRecord
	for _, rec := range m.queue.drain() {
		if m.abortQueued(rec, now, ErrShutdown) && m.opts.WAL != nil {
			frs = append(frs, m.buildFinish(rec.id, StateCanceled, now, now.Add(m.opts.TTL), ErrShutdown, nil))
		}
	}
	if len(frs) > 0 {
		m.walFinish(frs...)
	}
	m.wg.Wait()
	if m.opts.WAL != nil {
		m.opts.WAL.Close() //nolint:errcheck // final sync failure has no recourse here
	}
}

// Shutdown is the graceful form of Close: it stops admission
// immediately, then lets the dispatchers keep draining queued and
// running jobs until everything is terminal or ctx expires, and only
// then force-closes (canceling whatever is left, which is recorded
// with ErrShutdown / a canceled context as its reason). A process
// that calls Shutdown before exiting never leaves a job observable in
// a non-terminal state: every admitted job has resolved by the time
// Shutdown returns.
func (m *Manager) Shutdown(ctx context.Context) {
	m.drainOnce.Do(func() {
		m.closeMu.Lock()
		close(m.draining)
		m.closeMu.Unlock()
	})
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for m.depth.Load()+m.running.Load() > 0 {
		select {
		case <-ctx.Done():
			m.Close()
			return
		case <-m.closed: // concurrent Close wins
			m.wg.Wait()
			return
		case <-ticker.C:
		}
	}
	m.Close()
}

// NodeOf extracts the node tag from a job ID issued by a Manager with
// Options.NodeTag set ("j-<tag>-<prefix>-<seq>"). It returns "" for
// untagged IDs ("j-<prefix>-<seq>") and for strings that are not job
// IDs at all, so callers can treat "" uniformly as "no routing info".
func NodeOf(id string) string {
	parts := strings.Split(id, "-")
	if len(parts) == 4 && parts[0] == "j" && parts[1] != "" {
		return parts[1]
	}
	return ""
}

// Submit admits one job at the given priority (higher runs first) and
// returns its ID, or ErrQueueFull / ErrShuttingDown / ErrClosed.
func (m *Manager) Submit(payload any, priority int) (string, error) {
	ids, err := m.SubmitAll([]any{payload}, priority)
	if err != nil {
		return "", err
	}
	return ids[0], nil
}

// SubmitAll admits every payload or none: a batch that does not fit
// under the queue capacity is rejected whole with ErrQueueFull, so a
// caller never has to track a partially admitted batch. IDs are
// returned in payload order.
func (m *Manager) SubmitAll(payloads []any, priority int) ([]string, error) {
	return m.SubmitTraced(context.Background(), payloads, priority, "")
}

// SubmitTraced is SubmitAll with a trace ID stamped on every admitted
// record: it is surfaced in Status.TraceID and delivered to the
// Runner's context (ContextTraceID), linking the async execution back
// to the request that submitted it. The context scopes the WAL append
// (tracing; the append itself is not cancelable once started).
//
// With a WAL configured, admission is write-ahead: queue slots are
// reserved, the submit records are appended (and, under the always
// policy, fsynced), and only then do the jobs become visible — so an
// ID this method returns names a job that survives a crash.
func (m *Manager) SubmitTraced(ctx context.Context, payloads []any, priority int, traceID string) ([]string, error) {
	if len(payloads) == 0 {
		return nil, errors.New("jobs: empty submission")
	}
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	select {
	case <-m.closed:
		return nil, ErrClosed
	default:
	}
	select {
	case <-m.draining: // graceful drain: still working, not admitting
		return nil, ErrShuttingDown
	default:
	}
	now := time.Now()
	recs := make([]*record, len(payloads))
	ids := make([]string, len(payloads))
	for i, p := range payloads {
		seq := m.seq.Add(1)
		recs[i] = &record{
			id:        fmt.Sprintf(m.idFmt, seq),
			seq:       seq,
			priority:  priority,
			payload:   p,
			submitted: now,
			traceID:   traceID,
			state:     StateQueued,
		}
		ids[i] = recs[i].id
	}
	// Two-phase admission: reserve the slots, make the batch durable,
	// then commit (which registers the records in the store, so a batch
	// that never commits is never visible to Get/List/metrics).
	if err := m.queue.reserve(len(recs)); err != nil {
		m.rejected.Add(1)
		return nil, err
	}
	if m.opts.WAL != nil {
		wrecs := make([]wal.SubmitRecord, len(recs))
		for i, r := range recs {
			b, err := m.opts.EncodePayload(r.payload)
			if err != nil {
				m.queue.release(len(recs))
				m.rejected.Add(1)
				return nil, fmt.Errorf("jobs: encode payload: %w", err)
			}
			wrecs[i] = wal.SubmitRecord{
				ID:          r.id,
				TraceID:     r.traceID,
				Priority:    r.priority,
				SubmittedAt: r.submitted,
				Payload:     b,
			}
		}
		if err := m.opts.WAL.AppendSubmit(ctx, wrecs); err != nil {
			m.queue.release(len(recs))
			m.rejected.Add(1)
			m.walErrs.Add(1)
			return nil, fmt.Errorf("jobs: wal append: %w", err)
		}
	}
	m.queue.commit(recs, m.store.put)
	m.depth.Add(int64(len(recs)))
	m.submitted.Add(uint64(len(recs)))
	return ids, nil
}

// QueueCapacity returns the effective admission bound (defaults
// applied).
func (m *Manager) QueueCapacity() int { return m.opts.QueueCapacity }

// Get returns the job's current status, ErrNotFound for an unknown ID
// or ErrEvicted for a finished job whose result has been dropped.
func (m *Manager) Get(id string) (Status, error) {
	now := time.Now()
	rec, err := m.store.get(id, now)
	if err != nil {
		return Status{}, err
	}
	return rec.snapshot(now), nil
}

// Cancel stops a job: a queued job turns canceled immediately, a
// running job has its context canceled (the state turns canceled once
// the Runner honors it — the returned Status may still say running).
// Terminal jobs return ErrFinished alongside their status.
func (m *Manager) Cancel(id string) (Status, error) {
	now := time.Now()
	rec, err := m.store.get(id, now)
	if err != nil {
		return Status{}, err
	}
	rec.mu.Lock()
	switch rec.state {
	case StateQueued:
		rec.mu.Unlock()
		m.finishCanceled(rec, now)
		return rec.snapshot(now), nil
	case StateRunning:
		rec.cancel()
		rec.mu.Unlock()
		// Log the cancel intent: if the process dies before the Runner
		// honors the canceled context, replay still knows this job was
		// canceled instead of re-running it as a zombie.
		if m.opts.WAL != nil {
			if err := m.opts.WAL.AppendCancel(context.Background(), id); err != nil {
				m.walErrs.Add(1)
			}
		}
		return rec.snapshot(now), nil
	default:
		rec.mu.Unlock()
		return rec.snapshot(now), ErrFinished
	}
}

// finishCanceled moves a queued record straight to canceled (Cancel
// on a queued job). The record stays in the heap until a dispatcher
// pops and skips it.
func (m *Manager) finishCanceled(rec *record, now time.Time) {
	m.finishAborted(rec, now, nil)
}

// finishAborted is finishCanceled with a recorded reason; the
// shutdown paths use it so a job killed by the server stopping says
// so instead of looking like a client cancel.
func (m *Manager) finishAborted(rec *record, now time.Time, reason error) {
	if m.abortQueued(rec, now, reason) && m.opts.WAL != nil {
		m.walFinish(m.buildFinish(rec.id, StateCanceled, now, now.Add(m.opts.TTL), reason, nil))
	}
}

// abortQueued makes the queued→canceled transition, reporting whether
// this call won it (a dispatcher may have started the job first — the
// transition, not the WAL append, decides the race, which is why the
// abort path logs after transitioning while the dispatch path logs
// before: the dispatcher is the unique owner of running→terminal).
func (m *Manager) abortQueued(rec *record, now time.Time, reason error) bool {
	rec.mu.Lock()
	if rec.state != StateQueued {
		rec.mu.Unlock()
		return false
	}
	m.canceled.Add(1) // counted before the state is observable, as in dispatch
	rec.state = StateCanceled
	rec.finished = now
	rec.err = reason
	rec.mu.Unlock()
	m.depth.Add(-1)
	m.store.finish(rec, now.Add(m.opts.TTL))
	return true
}

// buildFinish renders a terminal transition as a WAL record. Result
// encoding failures degrade to a result-less done record (counted in
// walErrs) — the job's outcome survives, its body does not.
func (m *Manager) buildFinish(id string, state State, finished, expire time.Time, reason error, result any) wal.FinishRecord {
	fr := wal.FinishRecord{
		ID:         id,
		State:      walState(state),
		FinishedAt: finished,
		ExpireAt:   expire,
	}
	if reason != nil {
		fr.Err = reason.Error()
	}
	if state == StateDone && result != nil {
		if b, err := m.opts.EncodeResult(result); err == nil {
			fr.Result = b
		} else {
			m.walErrs.Add(1)
		}
	}
	return fr
}

// walFinish appends finish records, counting (not propagating)
// failures: by the time a finish exists the job already ran, and
// refusing to surface its outcome over a log error would turn a
// durability degradation into an availability loss.
func (m *Manager) walFinish(frs ...wal.FinishRecord) {
	if m.opts.WAL == nil {
		return
	}
	if err := m.opts.WAL.AppendFinish(context.Background(), frs...); err != nil {
		m.walErrs.Add(1)
	}
}

// walState maps a terminal manager state onto the WAL's.
func walState(s State) wal.State {
	switch s {
	case StateDone:
		return wal.StateDone
	case StateTimeout:
		return wal.StateTimeout
	case StateCanceled:
		return wal.StateCanceled
	}
	return wal.StateFailed
}

// List returns a page of job statuses, newest submission first,
// optionally filtered by state (empty matches all). limit <= 0 means
// no limit. The second return is the total match count before
// paging.
func (m *Manager) List(state State, offset, limit int) ([]Status, int) {
	now := time.Now()
	recs := m.store.all()
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq > recs[j].seq })
	matches := make([]Status, 0, len(recs))
	for _, rec := range recs {
		st := rec.snapshot(now)
		if state == "" || st.State == state {
			matches = append(matches, st)
		}
	}
	total := len(matches)
	if offset >= total {
		return nil, total
	}
	matches = matches[offset:]
	if limit > 0 && limit < len(matches) {
		matches = matches[:limit]
	}
	return matches, total
}

// dispatch is one runner goroutine: block for a token, pop the best
// record, run it, record the outcome.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		select {
		case <-m.closed:
			return
		case <-m.queue.ready:
		}
		rec := m.queue.pop()
		if rec == nil {
			continue // drained by Close
		}
		// Under closeMu (see Manager), a job starts before Close cancels
		// the base context or is aborted as Close's drain does.
		m.closeMu.RLock()
		select {
		case <-m.closed:
			m.closeMu.RUnlock()
			m.finishAborted(rec, time.Now(), ErrShutdown)
			continue
		default:
		}
		rec.mu.Lock()
		if rec.state != StateQueued { // canceled while waiting
			rec.mu.Unlock()
			m.closeMu.RUnlock()
			continue
		}
		now := time.Now()
		rec.state = StateRunning
		rec.started = now
		ctx, cancel := context.WithCancel(m.baseCtx)
		rec.cancel = cancel
		payload := rec.payload
		rec.mu.Unlock()
		m.closeMu.RUnlock()
		if rec.traceID != "" {
			ctx = withTraceID(ctx, rec.traceID)
		}

		// running rises before depth falls so the depth+running sum —
		// Shutdown's "work left" probe — never transiently reads zero
		// while a job is changing hands.
		m.running.Add(1)
		m.depth.Add(-1)
		m.waitHist.Observe(now.Sub(rec.submitted))

		out, err := m.opts.Run(ctx, payload)
		cancel()
		finish := time.Now()
		state := StateDone
		if err != nil {
			state = m.classify(err)
		}
		expire := finish.Add(m.opts.TTL)
		// Write-ahead for the terminal transition too: the finish record
		// is durable (to the policy's degree) before the state becomes
		// observable. Safe without the record lock — the dispatcher is
		// the unique owner of the running→terminal transition.
		if m.opts.WAL != nil {
			m.walFinish(m.buildFinish(rec.id, state, finish, expire, err, out))
		}

		// The terminal counters rise before the state becomes
		// observable, so a client that has polled a job to its end
		// reads Metrics that already count it.
		switch state {
		case StateDone:
			m.done.Add(1)
		case StateTimeout:
			m.timedOut.Add(1)
		case StateCanceled:
			m.canceled.Add(1)
		default:
			m.failed.Add(1)
		}
		rec.mu.Lock()
		rec.finished = finish
		rec.cancel = nil
		rec.state = state
		if err != nil {
			rec.err = err
		} else {
			rec.result = out
		}
		rec.mu.Unlock()

		m.running.Add(-1)
		m.runHist.Observe(finish.Sub(now))
		m.store.finish(rec, expire)
	}
}

// classify maps a Runner error to a terminal state: the caller's
// FailState first, then the context sentinels, then StateFailed.
func (m *Manager) classify(err error) State {
	if m.opts.FailState != nil {
		if s := m.opts.FailState(err); s != "" {
			return s
		}
	}
	switch {
	case errors.Is(err, context.Canceled):
		return StateCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return StateTimeout
	}
	return StateFailed
}

// janitor periodically sweeps expired results so idle managers shed
// memory without waiting for lookups to trip the lazy expiry, and
// drives WAL checkpointing on the same cadence (an ineligible log
// costs a few comparisons per tick).
func (m *Manager) janitor() {
	defer m.wg.Done()
	interval := m.opts.TTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.closed:
			return
		case <-ticker.C:
			now := time.Now()
			m.store.sweep(now)
			if m.opts.WAL != nil {
				m.opts.WAL.Compact(now)
			}
		}
	}
}
