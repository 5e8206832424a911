// Package faults is the opt-in fault-injection layer behind the soak
// and chaos harness (cmd/rcasoak). An Injector can stretch solve
// latency, force solver errors, fail write-ahead-log appends and
// stretch HTTP responses — the failure modes a long-running rcaserve
// must absorb without violating its invariants — while staying
// completely out of the production hot path: the engine, the WAL and
// rcaserve's request middleware hold a *Injector, a nil pointer means
// injection is compiled down to one pointer compare, and an armed
// injector costs one atomic increment per hook site.
//
// Injection is counter-based, not probabilistic: "every Nth call"
// from an atomic counter is deterministic under a fixed op sequence,
// race-free without locks, and reproducible across soak runs with the
// same seed — a flaky fault schedule would make oracle failures
// unreproducible, which defeats the point of the harness.
//
// The textual spec form ("delay=20ms:4,error=128") is
// what rcaserve's -faults flag and /debug/soak endpoint accept; see
// Parse. The special spec "none" arms an injector that injects
// nothing, which soak builds use to expose the debug endpoint without
// perturbing the workload.
package faults

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected is the forced solve failure. Callers that want to
// distinguish injected faults from organic failures (the soak oracle
// does) match on this sentinel or on its message.
var ErrInjected = errors.New("faults: injected error")

// Injector holds the armed fault schedule. All fields are atomics so
// a debug endpoint can re-arm a live injector while workers read it;
// the zero value injects nothing.
type Injector struct {
	// delayNanos is the injected solve latency; delayEvery fires it on
	// every Nth BeforeSolve call (0 = off, 1 = every call).
	delayNanos atomic.Int64
	delayEvery atomic.Int64
	// errorEvery forces ErrInjected on every Nth BeforeSolve call
	// (0 = off). Error and delay counters are independent, so a call
	// can both stall and fail.
	errorEvery atomic.Int64

	// walWriteEvery forces a write-ahead-log append failure on every
	// Nth BeforeWALWrite call (0 = off). A separate counter from the
	// solve hooks, so the WAL fault schedule is deterministic
	// regardless of solve traffic.
	walWriteEvery atomic.Int64

	// respDelayNanos/respDelayEvery stretch every Nth HTTP response
	// (the gray-failure fault: the process is alive, /healthz answers,
	// but serving latency is an order of magnitude up). They hook
	// BeforeResponse, counted separately from the solve hooks.
	respDelayNanos atomic.Int64
	respDelayEvery atomic.Int64

	calls  atomic.Uint64 // BeforeSolve invocations
	delays atomic.Uint64 // injected latencies fired
	errs   atomic.Uint64 // injected errors fired

	walWrites    atomic.Uint64 // BeforeWALWrite invocations
	walWriteErrs atomic.Uint64 // injected WAL append failures

	respCalls  atomic.Uint64 // BeforeResponse invocations
	respDelays atomic.Uint64 // injected response stalls fired
}

// Parse builds an injector from a comma-separated spec:
//
//	delay=20ms:4          inject 20ms of solve latency on every 4th solve
//	delay=5ms             inject 5ms on every solve
//	error=128             force an error on every 128th solve
//	wal-write-error=64    fail every 64th WAL append
//	resp-delay=300ms      stall every HTTP response by 300ms (gray failure)
//	resp-delay=50ms:4     stall every 4th HTTP response by 50ms
//	none                  arm the injector with nothing scheduled
//
// An empty spec is an error — callers express "no injection" by not
// arming an injector at all (nil), or with the explicit "none".
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, errors.New("faults: empty spec (use \"none\" for an armed but idle injector)")
	}
	inj := &Injector{}
	if spec == "none" {
		return inj, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad clause %q (want key=value)", part)
		}
		switch key {
		case "delay":
			durStr, everyStr, hasEvery := strings.Cut(val, ":")
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("faults: bad delay %q", val)
			}
			every := 1
			if hasEvery {
				every, err = strconv.Atoi(everyStr)
				if err != nil || every < 1 {
					return nil, fmt.Errorf("faults: bad delay period %q", everyStr)
				}
			}
			inj.delayNanos.Store(int64(d))
			inj.delayEvery.Store(int64(every))
		case "error":
			every, err := strconv.Atoi(val)
			if err != nil || every < 1 {
				return nil, fmt.Errorf("faults: bad error period %q", val)
			}
			inj.errorEvery.Store(int64(every))
		case "wal-write-error":
			every, err := strconv.Atoi(val)
			if err != nil || every < 1 {
				return nil, fmt.Errorf("faults: bad wal-write-error period %q", val)
			}
			inj.walWriteEvery.Store(int64(every))
		case "resp-delay":
			durStr, everyStr, hasEvery := strings.Cut(val, ":")
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("faults: bad resp-delay %q", val)
			}
			every := 1
			if hasEvery {
				every, err = strconv.Atoi(everyStr)
				if err != nil || every < 1 {
					return nil, fmt.Errorf("faults: bad resp-delay period %q", everyStr)
				}
			}
			inj.respDelayNanos.Store(int64(d))
			inj.respDelayEvery.Store(int64(every))
		default:
			return nil, fmt.Errorf("faults: unknown clause key %q", key)
		}
	}
	return inj, nil
}

// Rearm replaces the live schedule with a freshly parsed spec;
// counters keep accumulating.
func (inj *Injector) Rearm(spec string) error {
	next, err := Parse(spec)
	if err != nil {
		return err
	}
	inj.delayNanos.Store(next.delayNanos.Load())
	inj.delayEvery.Store(next.delayEvery.Load())
	inj.errorEvery.Store(next.errorEvery.Load())
	inj.walWriteEvery.Store(next.walWriteEvery.Load())
	inj.respDelayNanos.Store(next.respDelayNanos.Load())
	inj.respDelayEvery.Store(next.respDelayEvery.Load())
	return nil
}

// BeforeSolve is the engine-side hook, called on a cache miss
// immediately before the real solve. It applies the scheduled
// latency (interruptible by ctx, so cancellation still frees the
// worker promptly) and then the scheduled forced error.
func (inj *Injector) BeforeSolve(ctx context.Context) error {
	n := inj.calls.Add(1)
	if every := inj.delayEvery.Load(); every > 0 && n%uint64(every) == 0 {
		if d := time.Duration(inj.delayNanos.Load()); d > 0 {
			inj.delays.Add(1)
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	if every := inj.errorEvery.Load(); every > 0 && n%uint64(every) == 0 {
		inj.errs.Add(1)
		return fmt.Errorf("%w (call %d)", ErrInjected, n)
	}
	return nil
}

// BeforeWALWrite is the write-ahead-log hook, called immediately
// before an append reaches the segment file. It returns ErrInjected
// on every Nth call when a wal-write-error clause is armed, modeling
// a full or failing disk; the caller must surface the failure to the
// submitter (the record was never durable).
func (inj *Injector) BeforeWALWrite() error {
	n := inj.walWrites.Add(1)
	if every := inj.walWriteEvery.Load(); every > 0 && n%uint64(every) == 0 {
		inj.walWriteErrs.Add(1)
		return fmt.Errorf("%w (wal write %d)", ErrInjected, n)
	}
	return nil
}

// BeforeResponse is the HTTP-serving hook, called at the top of every
// request before the handler runs. An armed resp-delay clause
// stretches the response by the scheduled latency, interruptible by
// the request's context (client disconnect, forwarder hop timeout,
// server shutdown). The non-nil error is always the context's own, so
// callers can drop the request without writing a response the peer
// stopped waiting for.
func (inj *Injector) BeforeResponse(ctx context.Context) error {
	n := inj.respCalls.Add(1)
	if every := inj.respDelayEvery.Load(); every > 0 && n%uint64(every) == 0 {
		if d := time.Duration(inj.respDelayNanos.Load()); d > 0 {
			inj.respDelays.Add(1)
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
	return nil
}

// Stats is a snapshot of the injector's activity, exported by the
// debug endpoint so the soak harness can verify faults actually fired.
type Stats struct {
	Spec   string `json:"spec"`
	Calls  uint64 `json:"calls"`
	Delays uint64 `json:"delays"`
	Errors uint64 `json:"errors"`
	// WAL hook activity; zero unless a write-ahead log is running.
	WALWrites      uint64 `json:"walWrites"`
	WALWriteErrors uint64 `json:"walWriteErrors"`
	// HTTP response hook activity.
	RespCalls  uint64 `json:"respCalls"`
	RespDelays uint64 `json:"respDelays"`
}

// Snapshot reports the current schedule and counters.
func (inj *Injector) Snapshot() Stats {
	return Stats{
		Spec:           inj.String(),
		Calls:          inj.calls.Load(),
		Delays:         inj.delays.Load(),
		Errors:         inj.errs.Load(),
		WALWrites:      inj.walWrites.Load(),
		WALWriteErrors: inj.walWriteErrs.Load(),
		RespCalls:      inj.respCalls.Load(),
		RespDelays:     inj.respDelays.Load(),
	}
}

// String renders the live schedule back in spec form.
func (inj *Injector) String() string {
	var parts []string
	if every := inj.delayEvery.Load(); every > 0 && inj.delayNanos.Load() > 0 {
		parts = append(parts, fmt.Sprintf("delay=%v:%d", time.Duration(inj.delayNanos.Load()), every))
	}
	if every := inj.errorEvery.Load(); every > 0 {
		parts = append(parts, fmt.Sprintf("error=%d", every))
	}
	if every := inj.walWriteEvery.Load(); every > 0 {
		parts = append(parts, fmt.Sprintf("wal-write-error=%d", every))
	}
	if every := inj.respDelayEvery.Load(); every > 0 && inj.respDelayNanos.Load() > 0 {
		parts = append(parts, fmt.Sprintf("resp-delay=%v:%d", time.Duration(inj.respDelayNanos.Load()), every))
	}
	if len(parts) == 0 {
		return "none"
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
