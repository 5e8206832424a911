package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dspaddr/internal/faults"
	"dspaddr/internal/wal"
)

// String codecs: the tests use string payloads/results throughout.
func walCodecs(o *Options) {
	o.EncodePayload = func(v any) ([]byte, error) {
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("not a string: %T", v)
		}
		return []byte(s), nil
	}
	o.DecodePayload = func(b []byte) (any, error) { return string(b), nil }
	o.EncodeResult = func(v any) ([]byte, error) { return []byte(v.(string)), nil }
	o.DecodeResult = func(b []byte) (any, error) { return string(b), nil }
}

func openWAL(t *testing.T, dir string) (*wal.Log, *wal.Replay) {
	t.Helper()
	l, rep, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	return l, rep
}

// TestWALRecoveryEndToEnd is the full durability loop: a manager
// logs submissions and finishes, the process "crashes" (the manager
// is abandoned without Close, so nothing is flushed or aborted), and
// a second manager built from the replay picks up exactly where the
// first stopped — terminal results intact under their original IDs,
// unfinished jobs re-run.
func TestWALRecoveryEndToEnd(t *testing.T) {
	dir := t.TempDir()
	log1, rep := openWAL(t, dir)
	if len(rep.Jobs) != 0 {
		t.Fatalf("fresh WAL replayed %d jobs", len(rep.Jobs))
	}

	block := make(chan struct{})
	opts1 := Options{
		Runners: 2,
		WAL:     log1,
		Run: func(ctx context.Context, payload any) (any, error) {
			p := payload.(string)
			if p == "fast" {
				return "result:" + p, nil
			}
			select { // "slow" jobs outlive the crash
			case <-block:
				return "late", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	walCodecs(&opts1)
	m1 := New(opts1)
	defer close(block)

	fastID, err := m1.Submit("fast", 5)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m1, fastID)
	slowIDs, err := m1.SubmitAll([]any{"slow-a", "slow-b", "slow-c"}, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: no m1.Close(), no WAL close. Replay sees whatever hit the
	// files — the submits and the fast job's finish.
	log2, rep2 := openWAL(t, dir)
	if rep2.JobsTerminal != 1 || rep2.JobsRequeued != 3 {
		t.Fatalf("replay = %d terminal + %d requeued, want 1 + 3", rep2.JobsTerminal, rep2.JobsRequeued)
	}

	var mu sync.Mutex
	ran := map[string]int{}
	opts2 := Options{
		Runners:   2,
		WAL:       log2,
		Recovered: rep2.Jobs,
		Run: func(ctx context.Context, payload any) (any, error) {
			mu.Lock()
			ran[payload.(string)]++
			mu.Unlock()
			return "rerun:" + payload.(string), nil
		},
	}
	walCodecs(&opts2)
	m2 := New(opts2)
	defer m2.Close()

	// The fast job's result survived the crash, same ID.
	st, err := m2.Get(fastID)
	if err != nil {
		t.Fatalf("recovered job lookup: %v", err)
	}
	if st.State != StateDone || st.Result != "result:fast" || st.Priority != 5 {
		t.Errorf("recovered terminal job mismatch: %+v", st)
	}
	// The unfinished jobs re-ran to completion under their old IDs.
	for _, id := range slowIDs {
		waitDone(t, m2, id)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range []string{"slow-a", "slow-b", "slow-c"} {
		if ran[p] != 1 {
			t.Errorf("recovered payload %q ran %d times, want 1", p, ran[p])
		}
	}
	if ran["fast"] != 0 {
		t.Error("terminal job was re-run after recovery")
	}
	mt := m2.Metrics()
	if mt.Recovered != 4 || mt.Submitted != 4 {
		t.Errorf("recovery counters: recovered=%d submitted=%d, want 4/4", mt.Recovered, mt.Submitted)
	}
	if mt.Done != 4 { // 1 restored + 3 re-run
		t.Errorf("done = %d, want 4", mt.Done)
	}
}

// TestWALRecoverySyntheticStates covers the recovery edge cases
// without a first manager: expired terminals are skipped, zero-expiry
// cancels get a fresh TTL, undecodable payloads fail visibly, and the
// shutdown sentinel survives the text round-trip.
func TestWALRecoverySyntheticStates(t *testing.T) {
	now := time.Now()
	log, _ := openWAL(t, t.TempDir())
	opts := Options{
		Runners: 1,
		TTL:     time.Minute,
		WAL:     log,
		Recovered: []wal.JobState{
			{ID: "j-expired", State: wal.StateDone, FinishedAt: now.Add(-2 * time.Hour), ExpireAt: now.Add(-time.Hour), Result: []byte("gone")},
			{ID: "j-cancel-noexp", State: wal.StateCanceled}, // cancel record without finish: zero expiry
			{ID: "j-shutdown", State: wal.StateCanceled, FinishedAt: now, ExpireAt: now.Add(time.Hour), Err: ErrShutdown.Error()},
			{ID: "j-badpayload", State: wal.StateQueued, Payload: []byte("poison")},
		},
		Run: func(ctx context.Context, payload any) (any, error) { return payload, nil },
	}
	walCodecs(&opts)
	opts.DecodePayload = func(b []byte) (any, error) {
		if string(b) == "poison" {
			return nil, errors.New("poisoned")
		}
		return string(b), nil
	}
	m := New(opts)
	defer m.Close()

	if _, err := m.Get("j-expired"); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired terminal job: %v, want ErrNotFound", err)
	}
	if st, err := m.Get("j-cancel-noexp"); err != nil || st.State != StateCanceled {
		t.Errorf("cancel-without-finish: %+v, %v", st, err)
	}
	st, err := m.Get("j-shutdown")
	if err != nil || !errors.Is(st.Err, ErrShutdown) {
		t.Errorf("shutdown sentinel lost in round-trip: %+v, %v", st, err)
	}
	if st, err := m.Get("j-badpayload"); err != nil || st.State != StateFailed {
		t.Errorf("undecodable payload: %+v, %v — want a visible failure", st, err)
	}
}

// TestSubmitDuringDrain pins the Close-vs-Submit race resolution: a
// submitter racing a graceful drain gets a deterministic
// ErrShuttingDown (which still matches ErrClosed for old callers),
// never a job silently dropped into a dispatcherless queue.
func TestSubmitDuringDrain(t *testing.T) {
	started := make(chan struct{})
	var startedOnce sync.Once
	release := make(chan struct{})
	m := New(Options{
		Runners: 1,
		Run: func(ctx context.Context, payload any) (any, error) {
			startedOnce.Do(func() { close(started) })
			<-release
			return "ok", nil
		},
	})
	id, err := m.Submit("work", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Shutdown(context.Background())
	}()
	// Admission closes promptly even though the drain is still waiting
	// on the running job.
	deadline := time.Now().Add(2 * time.Second)
	var serr error
	for {
		_, serr = m.Submit("late", 0)
		if errors.Is(serr, ErrQueueFull) { // backlog filled before the drain engaged
			serr = nil
			time.Sleep(time.Millisecond)
		}
		if serr != nil || time.Now().After(deadline) {
			break
		}
	}
	if !errors.Is(serr, ErrShuttingDown) {
		t.Errorf("submit during drain = %v, want ErrShuttingDown", serr)
	}
	if !errors.Is(serr, ErrClosed) {
		t.Errorf("ErrShuttingDown must wrap ErrClosed, got %v", serr)
	}
	close(release)
	<-done
	// The drained job finished normally.
	if st, err := m.Get(id); err != nil || st.State != StateDone {
		t.Errorf("drained job: %+v, %v", st, err)
	}
	if _, err := m.Submit("after", 0); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
}

// TestWALAppendFailureRejectsSubmit: an injected WAL write error must
// bounce the submission atomically — no ghost job, no leaked queue
// slot.
func TestWALAppendFailureRejectsSubmit(t *testing.T) {
	inj, err := faults.Parse("wal-write-error=2")
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(t.TempDir(), wal.Options{Fsync: wal.FsyncOff, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Runners:       1,
		QueueCapacity: 2,
		WAL:           log,
		Run: func(ctx context.Context, payload any) (any, error) {
			<-ctx.Done() // hold jobs queued/running so capacity stays observable
			return nil, ctx.Err()
		},
	}
	walCodecs(&opts)
	m := New(opts)
	defer m.Close()

	if _, err := m.Submit("first", 0); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	ids, err := m.SubmitAll([]any{"second"}, 0)
	if err == nil {
		t.Fatalf("second submit survived an injected WAL error: %v", ids)
	}
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
		t.Errorf("WAL failure misreported as %v", err)
	}
	// The failed batch released its reservation: the queue still has
	// room for one more (capacity 2, one admitted, one runner holding).
	if _, err := m.Submit("third", 0); err != nil {
		t.Errorf("slot leaked by failed submission: %v", err)
	}
	mt := m.Metrics()
	if mt.WALAppendErrors != 1 || mt.Rejected != 1 {
		t.Errorf("walAppendErrors=%d rejected=%d, want 1/1", mt.WALAppendErrors, mt.Rejected)
	}
	if mt.Submitted != 2 {
		t.Errorf("submitted = %d, want 2", mt.Submitted)
	}
}

// TestWALShutdownAbortsDurably: Close aborts the backlog with one
// batched finish append, and the aborts replay as canceled (no
// requeue) in the next process.
func TestWALShutdownAbortsDurably(t *testing.T) {
	dir := t.TempDir()
	log1, _ := openWAL(t, dir)
	block := make(chan struct{})
	defer close(block)
	opts := Options{
		Runners: 1,
		WAL:     log1,
		Run: func(ctx context.Context, payload any) (any, error) {
			select {
			case <-block:
				return "ok", nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	}
	walCodecs(&opts)
	m := New(opts)
	ids, err := m.SubmitAll([]any{"a", "b", "c", "d"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Close() // one job canceled mid-run, three aborted in queue

	log2, rep := openWAL(t, dir)
	defer log2.Close()
	if rep.JobsRequeued != 0 {
		t.Fatalf("%d jobs requeued after a durable shutdown, want 0: %+v", rep.JobsRequeued, rep.Jobs)
	}
	if rep.JobsTerminal != len(ids) {
		t.Errorf("%d terminal jobs, want %d", rep.JobsTerminal, len(ids))
	}
	aborted := 0
	for _, j := range rep.Jobs {
		if j.State == wal.StateCanceled && j.Err == ErrShutdown.Error() {
			aborted++
		}
	}
	if aborted < 3 {
		t.Errorf("only %d jobs recorded the shutdown reason, want >= 3", aborted)
	}
}

// TestWALShutdownPopAfterClose forces the interleaving behind a rare
// TestWALShutdownAbortsDurably failure: Close has closed the manager
// and canceled the base context, and the runner freed by that cancel
// pops the next queued job before Close drains the queue. That job
// never started before the shutdown, so it must record ErrShutdown,
// not the canceled context it would run under.
func TestWALShutdownPopAfterClose(t *testing.T) {
	for round := 0; round < 10; round++ {
		dir := t.TempDir()
		log1, _ := openWAL(t, dir)
		opts := Options{
			Runners: 1,
			WAL:     log1,
			Run: func(ctx context.Context, payload any) (any, error) {
				<-ctx.Done()
				return nil, ctx.Err()
			},
		}
		walCodecs(&opts)
		m := New(opts)
		if _, err := m.SubmitAll([]any{"a", "b", "c", "d"}, 0); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); m.running.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("runner never started")
			}
			time.Sleep(time.Millisecond)
		}
		// Close's first step alone; the runner gets time to pop.
		m.closeOnce.Do(func() {
			m.closeMu.Lock()
			close(m.closed)
			m.baseCancel()
			m.closeMu.Unlock()
		})
		time.Sleep(20 * time.Millisecond)
		m.Close()

		log2, rep := openWAL(t, dir)
		aborted := 0
		for _, j := range rep.Jobs {
			if j.State == wal.StateCanceled && j.Err == ErrShutdown.Error() {
				aborted++
			}
		}
		log2.Close()
		if aborted != 3 {
			t.Fatalf("round %d: %d of 3 never-started jobs recorded the shutdown reason", round, aborted)
		}
	}
}

// waitDone polls via the shared waitState helper and asserts the
// terminal state reached is StateDone.
func waitDone(t *testing.T, m *Manager, id string) {
	t.Helper()
	if st := waitState(t, m, id); st.State != StateDone {
		t.Fatalf("job %s finished as %s, want done (%+v)", id, st.State, st)
	}
}
