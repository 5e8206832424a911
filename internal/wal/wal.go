// Package wal is the crash-safe write-ahead log under the async job
// manager: a directory of segmented, append-only files of CRC32-framed
// binary records (submit, cancel, finish) that lets a restarting
// process rebuild every job it ever acknowledged.
//
// The durability contract is write-before-acknowledge: an append
// returns only after the record bytes have reached the kernel via a
// single write(2), so a SIGKILL at any point loses at most work that
// was never acknowledged. What an append does NOT imply is fsync —
// that is the configurable policy:
//
//	always    fsync inside every append; survives power loss, slowest
//	interval  a background goroutine fsyncs dirty segments on a timer;
//	          survives process death (the page cache persists), loses
//	          at most one interval to power loss — the default
//	off       never fsync; still survives process death
//
// The contract is asymmetric by record type. Submit records are what
// the acknowledgement promises, so they always take the synchronous
// write. Finish records promise nothing to anyone — no caller waits
// on their durability, and a finish lost to a crash only means the
// job replays as unfinished and runs again, a window the interval
// fsync policy already concedes. Under interval and off they are
// therefore coalesced in user space and ride the next submit write,
// flusher tick, compaction pass or Close, halving the log's syscall
// rate and keeping completions out of submit's lock shadow. Cancel
// records stay synchronous even though they are also unacknowledged:
// their entire value is the crash window between the cancel request
// and the runner unwinding, which buffering would reopen.
//
// Segments rotate at a size threshold and are immutable once sealed.
// Recovery (Open) replays segments in order and tolerates arbitrary
// tail damage: the first torn or CRC-corrupted frame truncates the
// log at that point — the file is cut back to the last good frame and
// later segments are dropped — and replay never panics on any input
// (FuzzWALDecode holds it to that). A compaction pass (Compact, driven
// by the job manager's janitor) rewrites sealed segments whose jobs
// are all terminal, dropping records of expired jobs and deleting
// segments with nothing left, so the log stays bounded under steady
// traffic.
package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dspaddr/internal/faults"
	"dspaddr/internal/obs"
)

// segMagic opens every segment file; a version bump changes it, so a
// future format never mis-parses as this one.
var segMagic = []byte("RCAWAL01")

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: log closed")

// Defaults for zero Options fields.
const (
	DefaultSegmentBytes  = 4 << 20
	DefaultFsyncInterval = 100 * time.Millisecond
	DefaultRetention     = 15 * time.Minute
)

// maxPendingBytes caps the coalesced finish-record buffer: past this,
// the buffering append flushes inline rather than letting a
// finish-heavy burst grow the buffer unboundedly between flush points.
const maxPendingBytes = 256 << 10

// FsyncPolicy selects when appended records are forced to stable
// storage. The zero value is FsyncInterval — the crash-safe,
// power-loss-bounded default.
type FsyncPolicy uint8

const (
	// FsyncInterval syncs dirty segments from a background goroutine
	// every Options.FsyncInterval.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs inside every append, before it returns.
	FsyncAlways
	// FsyncOff never syncs; process-crash safe, power-loss unsafe.
	FsyncOff
)

// ParseFsyncPolicy parses the flag form: always, interval or off.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	}
	return "interval"
}

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold; a segment that reaches
	// it is sealed and a fresh one opened. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync is the durability policy (see the package comment).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval.
	// 0 means DefaultFsyncInterval.
	FsyncInterval time.Duration
	// Retention is the compaction horizon for jobs the log has no
	// recorded expiry for (canceled without a finish record, live at
	// replay); callers pass the job store's TTL. 0 means
	// DefaultRetention.
	Retention time.Duration
	// Faults is the opt-in chaos hook (the wal-write-error clause);
	// nil — the production default — is one pointer compare per
	// append.
	Faults *faults.Injector
	// AppendHist, FsyncHist and ReplayHist, when non-nil, record
	// append latency, fsync latency and replay duration; nil costs a
	// nil check.
	AppendHist *obs.Histogram
	FsyncHist  *obs.Histogram
	ReplayHist *obs.Histogram
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.Retention <= 0 {
		o.Retention = DefaultRetention
	}
	return o
}

// segment is the in-memory state of one on-disk segment file.
type segment struct {
	seq  uint64
	path string
	size int64
	// open counts live (non-terminal) jobs whose submit record lives
	// here; a sealed segment is compactable only at open == 0.
	open int
	// nextCompact is the earliest time (unixnano) a compaction scan
	// can drop anything from this segment — the minimum expiry seen on
	// the last scan. 0 means "not scanned yet".
	nextCompact int64
}

// jobEntry is the compaction index entry for one job: where its
// submit record lives and when (if terminal) its records expire.
type jobEntry struct {
	seg      uint64
	terminal bool
	expire   int64 // unixnano; 0 while live
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends serialize on one mutex (a single-writer log).
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex
	closed    bool
	active    *os.File
	activeSeq uint64
	sealed    []*segment          // ascending seq; excludes the active segment
	segOf     map[uint64]*segment // every segment incl. active
	index     map[string]*jobEntry
	buf       []byte // frame assembly scratch, guarded by mu
	// pending holds encoded finish frames awaiting coalesced flush
	// (interval/off policies only); their index effects are already
	// applied. pendingRecs counts the frames.
	pending     []byte
	pendingRecs int

	dirty    atomic.Bool // active segment has unsynced bytes
	size     atomic.Int64
	segCount atomic.Int64

	appends      atomic.Uint64 // records appended
	appendErrs   atomic.Uint64
	fsyncs       atomic.Uint64
	fsyncErrs    atomic.Uint64
	compactRuns  atomic.Uint64
	segRewrites  atomic.Uint64
	segDeletes   atomic.Uint64
	recsDropped  atomic.Uint64
	replayReport ReplayStats // fixed after Open

	flushStop chan struct{}
	flushWG   sync.WaitGroup
}

// AppendSubmit logs a batch of admitted jobs as one write. On return
// (without error) the records are in the kernel; the caller may
// acknowledge the submission.
func (l *Log) AppendSubmit(ctx context.Context, recs []SubmitRecord) error {
	if len(recs) == 0 {
		return nil
	}
	return l.append(ctx, len(recs), func(buf []byte) []byte {
		for i := range recs {
			buf = appendSubmit(buf, recs[i])
		}
		return buf
	}, func(seq uint64) {
		entries := make([]jobEntry, len(recs)) // one allocation per burst
		for i := range recs {
			entries[i].seg = seq
			l.index[recs[i].ID] = &entries[i]
		}
		l.segOf[seq].open += len(recs)
	})
}

// AppendCancel logs a cancellation request against a running job. The
// terminal state still arrives via AppendFinish once the runner
// unwinds; the cancel record only matters when the process dies in
// between — replay then resolves the job as canceled instead of
// re-running it.
func (l *Log) AppendCancel(ctx context.Context, id string) error {
	return l.append(ctx, 1, func(buf []byte) []byte {
		return appendCancel(buf, id)
	}, nil)
}

// AppendFinish logs terminal transitions. Under FsyncAlways they take
// the synchronous write path like everything else; under interval and
// off they are coalesced — buffered in user space and flushed with the
// next submit write, flusher tick, compaction pass or Close. See the
// package comment for why that asymmetry is sound: finish durability
// is never acknowledged, and a finish lost to a crash only re-runs
// the job, the same window the interval fsync policy already has.
func (l *Log) AppendFinish(ctx context.Context, recs ...FinishRecord) error {
	if len(recs) == 0 {
		return nil
	}
	build := func(buf []byte) []byte {
		for i := range recs {
			buf = appendFinish(buf, recs[i])
		}
		return buf
	}
	apply := func() {
		for i := range recs {
			e := l.index[recs[i].ID]
			if e == nil || e.terminal {
				continue
			}
			e.terminal = true
			e.expire = recs[i].ExpireAt.UnixNano()
			if seg := l.segOf[e.seg]; seg != nil {
				seg.open--
			}
		}
	}
	if l.opts.Fsync == FsyncAlways {
		return l.append(ctx, len(recs), build, func(uint64) { apply() })
	}
	return l.bufferTerminal(len(recs), build, apply)
}

// bufferTerminal queues encoded finish frames for a coalesced flush.
// The compaction-index effects apply immediately — they describe the
// job, not the record's on-disk position — so Compact and Stats see
// terminal transitions without waiting for the flush.
func (l *Log) bufferTerminal(n int, build func([]byte) []byte, apply func()) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.pending = build(l.pending)
	l.pendingRecs += n
	apply()
	if len(l.pending) >= maxPendingBytes {
		l.flushPendingLocked(context.Background())
	}
	return nil
}

// flushPendingLocked writes the coalesced finish frames with one
// write(2). Called with the log mutex held. On error the buffer is
// dropped, not retried: the records were never promised durable, and
// replay resolves their jobs as unfinished — the documented
// degradation, counted in appendErrs.
func (l *Log) flushPendingLocked(ctx context.Context) {
	if l.pendingRecs == 0 || l.active == nil {
		return
	}
	buf := append(l.buf[:0], l.pending...)
	_, err := l.writeLocked(ctx, buf, l.pendingRecs)
	l.recycleScratch(buf)
	if err != nil {
		l.appendErrs.Add(1)
	}
	l.pending = l.pending[:0]
	l.pendingRecs = 0
}

// append is the single write path: build the frames into the shared
// scratch buffer, write them with one write(2), update the compaction
// index, rotate and fsync per policy. apply (may be nil) runs after a
// successful write with the sequence of the segment the bytes landed
// in.
func (l *Log) append(ctx context.Context, n int, build func([]byte) []byte, apply func(seq uint64)) error {
	sp := obs.FromContext(ctx).StartSpan("wal.append")
	start := time.Now()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		sp.Note("closed").End()
		return ErrClosed
	}
	if inj := l.opts.Faults; inj != nil {
		if err := inj.BeforeWALWrite(); err != nil {
			l.appendErrs.Add(1)
			l.mu.Unlock()
			sp.Note("fault").End()
			return err
		}
	}
	// Coalesced finish frames ride this write for free: prepend them to
	// the same buffer so one syscall covers both.
	flushN := l.pendingRecs
	buf := build(append(l.buf[:0], l.pending...))
	seq, err := l.writeLocked(ctx, buf, n+flushN)
	l.recycleScratch(buf)
	if flushN > 0 {
		// Success or failure, the pending frames were part of this write
		// attempt; on failure they are lost with it (see flushPendingLocked).
		l.pending = l.pending[:0]
		l.pendingRecs = 0
	}
	if err != nil {
		l.appendErrs.Add(1)
		l.mu.Unlock()
		sp.Note("error").End()
		return fmt.Errorf("wal: append: %w", err)
	}
	if apply != nil {
		apply(seq)
	}
	l.mu.Unlock()
	l.opts.AppendHist.Observe(time.Since(start))
	sp.Attr("records", int64(n)).Attr("bytes", int64(len(buf))).End()
	return nil
}

// writeLocked is the single write(2): it lands buf in the active
// segment, accounts n records, rolls a torn tail back by truncation,
// fsyncs per policy and rotates at the size threshold. It returns the
// sequence of the segment the bytes landed in. The log mutex is held.
func (l *Log) writeLocked(ctx context.Context, buf []byte, n int) (uint64, error) {
	wrote, err := l.active.Write(buf)
	if err != nil {
		// A short write leaves a torn frame at the tail; cut it back so
		// later appends don't land after garbage replay would discard.
		if wrote > 0 {
			end := l.segOf[l.activeSeq].size
			if terr := l.active.Truncate(end); terr != nil {
				// Rollback failed too: abandon this segment for a fresh one
				// so the log stays append-clean past the damage.
				l.size.Add(int64(wrote))
				l.segOf[l.activeSeq].size += int64(wrote)
				l.rotateLocked()
			}
		}
		return 0, err
	}
	seq := l.activeSeq
	seg := l.segOf[seq]
	seg.size += int64(wrote)
	l.size.Add(int64(wrote))
	l.appends.Add(uint64(n))
	if l.opts.Fsync == FsyncAlways {
		l.syncActiveLocked(ctx)
	} else {
		l.dirty.Store(true)
	}
	if seg.size >= l.opts.SegmentBytes {
		l.rotateLocked()
	}
	return seq, nil
}

// recycleScratch returns the frame-assembly buffer for reuse, letting
// batch-close spikes go to GC instead of pinning megabytes.
func (l *Log) recycleScratch(buf []byte) {
	if cap(buf) <= 1<<20 {
		l.buf = buf[:0]
	} else {
		l.buf = nil
	}
}

// syncActiveLocked fsyncs the active segment under the log mutex
// (FsyncAlways and rotation). The interval flusher uses syncFile
// outside the lock instead.
func (l *Log) syncActiveLocked(ctx context.Context) {
	if l.active == nil {
		return
	}
	sp := obs.FromContext(ctx).StartSpan("wal.fsync")
	start := time.Now()
	err := l.active.Sync()
	l.opts.FsyncHist.Observe(time.Since(start))
	l.fsyncs.Add(1)
	if err != nil {
		l.fsyncErrs.Add(1)
		sp.Note("error")
	}
	l.dirty.Store(false)
	sp.End()
}

// flushLoop is the background goroutine for the buffering policies
// (interval and off): every interval it writes out coalesced finish
// frames, and — under FsyncInterval only — syncs the active segment if
// anything was appended since the last pass. The fsync runs outside
// the log mutex — concurrent appends are not stalled; their bytes are
// covered by the next pass.
func (l *Log) flushLoop() {
	defer l.flushWG.Done()
	ticker := time.NewTicker(l.opts.FsyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-ticker.C:
			l.mu.Lock()
			if !l.closed {
				l.flushPendingLocked(context.Background())
			}
			l.mu.Unlock()
			if l.opts.Fsync != FsyncInterval {
				continue // FsyncOff: the tick only drains the finish buffer
			}
			if !l.dirty.Swap(false) {
				continue
			}
			l.mu.Lock()
			f := l.active
			l.mu.Unlock()
			if f == nil {
				continue
			}
			start := time.Now()
			err := f.Sync()
			l.opts.FsyncHist.Observe(time.Since(start))
			l.fsyncs.Add(1)
			// A rotation may close the file mid-sync; its seal path
			// already synced it, so that race is not an error.
			if err != nil && !errors.Is(err, os.ErrClosed) {
				l.fsyncErrs.Add(1)
			}
		}
	}
}

// rotateLocked seals the active segment (final fsync unless the
// policy is off, then close) and opens the next one. Failures to open
// a new segment leave the log closed for appends — better refuse
// durable writes than silently drop them.
func (l *Log) rotateLocked() {
	if l.active != nil {
		if l.opts.Fsync != FsyncOff {
			l.fsyncs.Add(1)
			if err := l.active.Sync(); err != nil {
				l.fsyncErrs.Add(1)
			}
		}
		l.active.Close()
		l.active = nil
		l.sealed = append(l.sealed, l.segOf[l.activeSeq])
	}
	if err := l.openSegmentLocked(l.activeSeq + 1); err != nil {
		l.closed = true
	}
}

// openSegmentLocked creates and activates segment seq.
func (l *Log) openSegmentLocked(seq uint64) error {
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.active = f
	l.activeSeq = seq
	seg := &segment{seq: seq, path: path, size: int64(len(segMagic))}
	l.segOf[seq] = seg
	l.size.Add(seg.size)
	l.segCount.Add(1)
	if l.opts.Fsync != FsyncOff {
		syncDir(l.dir)
	}
	return nil
}

// Close syncs (per policy) and closes the active segment and stops
// the background flusher. Appends after Close return ErrClosed.
// Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.flushPendingLocked(context.Background())
	l.closed = true
	f := l.active
	l.active = nil
	l.mu.Unlock()
	if l.flushStop != nil {
		close(l.flushStop)
		l.flushWG.Wait()
	}
	var err error
	if f != nil {
		if l.opts.Fsync != FsyncOff {
			l.fsyncs.Add(1)
			if serr := f.Sync(); serr != nil {
				l.fsyncErrs.Add(1)
			}
		}
		err = f.Close()
	}
	return err
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// segmentName renders the on-disk name for segment seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

// syncDir fsyncs a directory so renames, creates and deletes are
// durable. Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck // advisory
	d.Close()
}

// Stats is a point-in-time snapshot of the log's health, exported via
// /metrics and /v1/stats.
type Stats struct {
	Dir               string      `json:"dir"`
	FsyncPolicy       string      `json:"fsyncPolicy"`
	Segments          int64       `json:"segments"`
	SizeBytes         int64       `json:"sizeBytes"`
	Appends           uint64      `json:"appendedRecords"`
	AppendErrors      uint64      `json:"appendErrors"`
	Fsyncs            uint64      `json:"fsyncs"`
	FsyncErrors       uint64      `json:"fsyncErrors"`
	CompactRuns       uint64      `json:"compactRuns"`
	SegmentsRewritten uint64      `json:"segmentsRewritten"`
	SegmentsDeleted   uint64      `json:"segmentsDeleted"`
	RecordsDropped    uint64      `json:"recordsDropped"`
	Replay            ReplayStats `json:"replay"`
}

// Stats snapshots the log counters.
func (l *Log) Stats() Stats {
	return Stats{
		Dir:               l.dir,
		FsyncPolicy:       l.opts.Fsync.String(),
		Segments:          l.segCount.Load(),
		SizeBytes:         l.size.Load(),
		Appends:           l.appends.Load(),
		AppendErrors:      l.appendErrs.Load(),
		Fsyncs:            l.fsyncs.Load(),
		FsyncErrors:       l.fsyncErrs.Load(),
		CompactRuns:       l.compactRuns.Load(),
		SegmentsRewritten: l.segRewrites.Load(),
		SegmentsDeleted:   l.segDeletes.Load(),
		RecordsDropped:    l.recsDropped.Load(),
		Replay:            l.replayReport,
	}
}
