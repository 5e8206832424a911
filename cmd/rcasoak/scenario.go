// The scenario DSL: a soak run is a sequence of timed phases, each
// with a target op rate and a traffic mix, interleaved with server
// restart and kill directives. Scenarios come from a file or from the
// builtin "mixed" or "crash" scenarios scaled to the -duration flag.
//
// Grammar (line-oriented; '#' starts a comment):
//
//	cluster <nodes>
//	phase <name> <duration> rate=<ops/s> mix=<class:w,...> \
//	      [fresh=<permil>] [faults=<spec>] [restart|kill|killnode|grayslow]
//	restart
//	kill
//
// A trailing `restart` on a phase line restarts the server at the
// phase midpoint while the drivers keep hammering — the chaos case. A
// standalone `restart` line restarts between phases — the orderly
// case. `kill` is the violent variant: SIGKILL instead of SIGTERM, no
// drain, no flush — the crash a WAL exists to survive. `faults=`
// re-arms the server's fault injector for the phase (via POST
// /debug/soak) and restores the base spec afterwards; `fresh=` sets
// the permil of unique (cache-cold) patterns, which is how an
// overload phase defeats the result cache to provoke 429s.
//
// A `cluster N` directive switches the topology: N rcaserve nodes
// behind one rcagate gateway, drivers aimed at the gateway. Cluster
// scenarios replace restart/kill with `killnode`, which SIGKILLs one
// fleet node at the phase midpoint and leaves it dead — the gateway
// must mark it down, rehash its key range and keep serving — or
// `grayslow`, which arms a response-delay fault on one node at the
// midpoint and clears it at the three-quarter mark: the node stays
// health-probe-green while slow, so ejecting and readmitting it is
// the circuit breakers' job, not the prober's.

package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dspaddr/internal/faults"
	"dspaddr/internal/workload"
)

// maxClusterNodes bounds the `cluster` directive: the harness starts
// one OS process per node plus a gateway.
const maxClusterNodes = 16

// phaseSpec is one timed load phase.
type phaseSpec struct {
	Name     string
	Duration time.Duration
	// Rate is the target op rate across all clients (ops/second).
	Rate int
	Mix  workload.Mix
	// FreshPermil overrides the generator's unique-pattern fraction
	// (0 = generator default).
	FreshPermil int
	// Faults re-arms the injector for this phase ("" = leave as is).
	Faults string
	// RestartMid restarts the server at the phase midpoint, under load.
	RestartMid bool
	// KillMid SIGKILLs the server at the phase midpoint, under load —
	// no drain, no WAL flush; recovery is the replay path's problem.
	KillMid bool
	// KillNodeMid (cluster scenarios only) SIGKILLs one fleet node at
	// the phase midpoint and leaves it dead: the gateway must mark it
	// down, rehash its keys to the ring successor and keep serving on
	// the survivors.
	KillNodeMid bool
	// GraySlowMid (cluster scenarios only) arms a response-delay fault
	// on one fleet node at the phase midpoint and clears it at the
	// three-quarter mark: the node stays alive and keeps passing
	// health probes, but every response is an order of magnitude
	// slower — the gray failure the gateway's circuit breakers (not
	// its prober) must eject and, once the fault clears, readmit.
	GraySlowMid bool
}

// step is one scenario element: a phase, a between-phase restart, or
// a between-phase SIGKILL.
type step struct {
	Phase   *phaseSpec
	Restart bool
	Kill    bool
}

// scenario is a full soak run description.
type scenario struct {
	Name  string
	Steps []step
	// Cluster > 0 runs the scenario against that many rcaserve nodes
	// behind an rcagate gateway instead of one directly-driven server;
	// drivers then target the gateway. Restart/kill directives are for
	// the single-server topology; cluster scenarios use killnode.
	Cluster int
}

// phases lists the scenario's phases in order.
func (s *scenario) phases() []*phaseSpec {
	var out []*phaseSpec
	for _, st := range s.Steps {
		if st.Phase != nil {
			out = append(out, st.Phase)
		}
	}
	return out
}

// totalDuration sums the phase durations.
func (s *scenario) totalDuration() time.Duration {
	var d time.Duration
	for _, p := range s.phases() {
		d += p.Duration
	}
	return d
}

// expectations derives what the oracle must see from what the
// scenario promises to generate.
type expectations struct {
	// Classes that must appear in the op counts.
	Classes []workload.OpKind
	// Expect429 when any phase carries burst weight: the overload wave
	// must actually bounce off admission at least once.
	Expect429 bool
	// Restarts is the number of restart directives (mid-phase and
	// between-phase); the harness must observe that many clean exits
	// before the final one.
	Restarts int
	// Kills is the number of kill directives; the harness must have
	// SIGKILLed and replaced the server that many times.
	Kills int
	// NodeKills is the number of killnode directives (cluster mode);
	// each permanently removes one fleet node under load.
	NodeKills int
	// GraySlows is the number of grayslow directives (cluster mode);
	// each slows one node mid-phase and clears the fault before the
	// phase ends — the breaker must open and then re-close.
	GraySlows int
}

// expect derives the oracle's coverage obligations.
func (s *scenario) expect() expectations {
	var e expectations
	var mix workload.Mix
	for _, st := range s.Steps {
		if st.Restart {
			e.Restarts++
		}
		if st.Kill {
			e.Kills++
		}
		if st.Phase == nil {
			continue
		}
		if st.Phase.RestartMid {
			e.Restarts++
		}
		if st.Phase.KillMid {
			e.Kills++
		}
		if st.Phase.KillNodeMid {
			e.NodeKills++
		}
		if st.Phase.GraySlowMid {
			e.GraySlows++
		}
		m := st.Phase.Mix
		mix.Sync += m.Sync
		mix.Batch += m.Batch
		mix.Async += m.Async
		mix.Burst += m.Burst
		mix.Cancel += m.Cancel
		mix.BigN += m.BigN
	}
	add := func(k workload.OpKind, w int) {
		if w > 0 {
			e.Classes = append(e.Classes, k)
		}
	}
	add(workload.OpSync, mix.Sync)
	add(workload.OpBatch, mix.Batch)
	add(workload.OpAsync, mix.Async)
	add(workload.OpAsyncBurst, mix.Burst)
	add(workload.OpCancel, mix.Cancel)
	add(workload.OpBigN, mix.BigN)
	e.Expect429 = mix.Burst > 0
	return e
}

// parseScenario reads the DSL.
func parseScenario(name, text string) (*scenario, error) {
	sc := &scenario{Name: name}
	for lineno, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "cluster":
			if len(fields) != 2 {
				return nil, fmt.Errorf("scenario line %d: cluster takes a node count", lineno+1)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 2 || n > maxClusterNodes {
				return nil, fmt.Errorf("scenario line %d: bad cluster size %q (want 2..%d)",
					lineno+1, fields[1], maxClusterNodes)
			}
			sc.Cluster = n
		case "restart":
			if len(fields) != 1 {
				return nil, fmt.Errorf("scenario line %d: restart takes no arguments", lineno+1)
			}
			sc.Steps = append(sc.Steps, step{Restart: true})
		case "kill":
			if len(fields) != 1 {
				return nil, fmt.Errorf("scenario line %d: kill takes no arguments", lineno+1)
			}
			sc.Steps = append(sc.Steps, step{Kill: true})
		case "phase":
			p, err := parsePhase(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("scenario line %d: %w", lineno+1, err)
			}
			sc.Steps = append(sc.Steps, step{Phase: p})
		default:
			return nil, fmt.Errorf("scenario line %d: unknown directive %q", lineno+1, fields[0])
		}
	}
	if len(sc.phases()) == 0 {
		return nil, fmt.Errorf("scenario %q has no phases", name)
	}
	if err := validateTopology(sc); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", name, err)
	}
	return sc, nil
}

// validateTopology keeps directives on the topology they exercise:
// restart/kill replace THE server (single-node), killnode removes ONE
// node of a fleet — and a fleet must keep at least one node alive.
func validateTopology(sc *scenario) error {
	nodeKills := 0
	for _, st := range sc.Steps {
		if sc.Cluster > 0 && (st.Restart || st.Kill) {
			return fmt.Errorf("restart/kill directives are single-server; use killnode in cluster scenarios")
		}
		if st.Phase == nil {
			continue
		}
		if sc.Cluster > 0 && (st.Phase.RestartMid || st.Phase.KillMid) {
			return fmt.Errorf("phase %q: restart/kill are single-server; use killnode in cluster scenarios", st.Phase.Name)
		}
		if st.Phase.KillNodeMid {
			if sc.Cluster == 0 {
				return fmt.Errorf("phase %q: killnode needs a cluster directive", st.Phase.Name)
			}
			nodeKills++
		}
		if st.Phase.GraySlowMid && sc.Cluster == 0 {
			return fmt.Errorf("phase %q: grayslow needs a cluster directive", st.Phase.Name)
		}
	}
	if sc.Cluster > 0 && nodeKills >= sc.Cluster {
		return fmt.Errorf("%d killnode directives would empty a %d-node fleet", nodeKills, sc.Cluster)
	}
	return nil
}

// parsePhase reads the fields after the "phase" keyword.
func parsePhase(fields []string) (*phaseSpec, error) {
	if len(fields) < 2 {
		return nil, fmt.Errorf("phase needs a name and a duration")
	}
	p := &phaseSpec{Name: fields[0]}
	dur, err := time.ParseDuration(fields[1])
	if err != nil || dur <= 0 {
		return nil, fmt.Errorf("bad phase duration %q", fields[1])
	}
	p.Duration = dur
	sawMix, sawRate := false, false
	for _, f := range fields[2:] {
		if f == "restart" {
			p.RestartMid = true
			continue
		}
		if f == "kill" {
			p.KillMid = true
			continue
		}
		if f == "killnode" {
			p.KillNodeMid = true
			continue
		}
		if f == "grayslow" {
			p.GraySlowMid = true
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad phase option %q (want key=value, restart, kill, killnode or grayslow)", f)
		}
		switch key {
		case "rate":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad rate %q", val)
			}
			p.Rate, sawRate = n, true
		case "mix":
			m, err := workload.ParseMix(val)
			if err != nil {
				return nil, err
			}
			p.Mix, sawMix = m, true
		case "fresh":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > 1000 {
				return nil, fmt.Errorf("bad fresh permil %q (want 1..1000)", val)
			}
			p.FreshPermil = n
		case "faults":
			if _, err := faults.Parse(val); err != nil {
				return nil, fmt.Errorf("bad phase faults spec: %w", err)
			}
			p.Faults = val
		default:
			return nil, fmt.Errorf("unknown phase option %q", key)
		}
	}
	if !sawRate || !sawMix {
		return nil, fmt.Errorf("phase %q needs rate= and mix=", p.Name)
	}
	disruptions := 0
	for _, on := range []bool{p.RestartMid, p.KillMid, p.KillNodeMid, p.GraySlowMid} {
		if on {
			disruptions++
		}
	}
	if disruptions > 1 {
		return nil, fmt.Errorf("phase %q: restart, kill, killnode and grayslow share the midpoint; pick one", p.Name)
	}
	return p, nil
}

// builtinMixed is the default scenario scaled to a total duration: a
// warmup, a deliberate 429 overload wave (cache-cold traffic against
// slowed solves), a chaos phase with a mid-phase restart under load, a
// steady full mix with cancels and pathological large-N jobs, and a
// cooldown.
func builtinMixed(total time.Duration) *scenario {
	slice, mustMix := scenarioHelpers(total)
	return &scenario{
		Name: "mixed",
		Steps: []step{
			{Phase: &phaseSpec{Name: "warmup", Duration: slice(150), Rate: 40,
				Mix: mustMix("sync:3,async:5")}},
			{Phase: &phaseSpec{Name: "overload", Duration: slice(200), Rate: 120,
				Mix: mustMix("async:2,burst:3"), FreshPermil: 1000,
				Faults: "delay=60ms"}},
			{Phase: &phaseSpec{Name: "chaos", Duration: slice(300), Rate: 60,
				Mix: mustMix("sync:3,async:4,cancel:2,bign:1"), RestartMid: true}},
			{Phase: &phaseSpec{Name: "steady", Duration: slice(250), Rate: 60,
				Mix: mustMix("sync:3,batch:1,async:4,cancel:1,bign:1")}},
			{Phase: &phaseSpec{Name: "cooldown", Duration: slice(100), Rate: 20,
				Mix: mustMix("sync:1")}},
		},
	}
}

// builtinCrash is the durability scenario scaled to a total duration:
// async-heavy waves SIGKILLed three times at phase midpoints, so every
// kill lands with accepted jobs queued, running, finishing and being
// canceled. Run with -wal-dir it is the ISSUE's acceptance case — the
// oracle excuses nothing, so every 202 must survive the crash via WAL
// replay; without -wal-dir the kill windows excuse the inevitable
// losses and the scenario degrades to a restart-robustness check. No
// burst weight: a replay wave refilling the queue makes 429 timing
// non-deterministic, and overload coverage belongs to "mixed".
func builtinCrash(total time.Duration) *scenario {
	slice, mustMix := scenarioHelpers(total)
	crashMix := mustMix("sync:1,async:6,cancel:2,bign:1")
	return &scenario{
		Name: "crash",
		Steps: []step{
			{Phase: &phaseSpec{Name: "warmup", Duration: slice(120), Rate: 40,
				Mix: mustMix("sync:2,async:6")}},
			{Phase: &phaseSpec{Name: "crash1", Duration: slice(200), Rate: 60,
				Mix: crashMix, KillMid: true}},
			{Phase: &phaseSpec{Name: "crash2", Duration: slice(200), Rate: 60,
				Mix: mustMix("async:6,batch:1,cancel:1"), KillMid: true}},
			{Phase: &phaseSpec{Name: "crash3", Duration: slice(200), Rate: 60,
				Mix: crashMix, KillMid: true}},
			{Phase: &phaseSpec{Name: "steady", Duration: slice(180), Rate: 40,
				Mix: mustMix("sync:2,batch:1,async:4,cancel:1")}},
			{Phase: &phaseSpec{Name: "cooldown", Duration: slice(100), Rate: 20,
				Mix: mustMix("sync:1")}},
		},
	}
}

// builtinCluster is the fleet-robustness scenario scaled to a total
// duration: a 3-node fleet behind the rcagate gateway, warmed up,
// then one node SIGKILLed at a phase midpoint and never replaced.
// Run with -wal-dir (the acceptance configuration) the oracle then
// asserts the fleet keeps serving, no job owned by a surviving node
// is lost (the killed node's in-flight jobs are the only excusable
// casualties — their WAL has no process left to replay it), and the
// downed node's key range rehashes to its ring successor within the
// gateway's health-check window.
func builtinCluster(total time.Duration) *scenario {
	slice, mustMix := scenarioHelpers(total)
	return &scenario{
		Name:    "cluster",
		Cluster: 3,
		Steps: []step{
			{Phase: &phaseSpec{Name: "warmup", Duration: slice(200), Rate: 40,
				Mix: mustMix("sync:3,async:5")}},
			{Phase: &phaseSpec{Name: "nodekill", Duration: slice(300), Rate: 60,
				Mix: mustMix("sync:2,async:5,cancel:1"), KillNodeMid: true}},
			{Phase: &phaseSpec{Name: "degraded", Duration: slice(350), Rate: 60,
				Mix: mustMix("sync:3,batch:1,async:4,cancel:1")}},
			{Phase: &phaseSpec{Name: "cooldown", Duration: slice(150), Rate: 20,
				Mix: mustMix("sync:1")}},
		},
	}
}

// builtinGrayfail is the gray-failure scenario scaled to a total
// duration: a 3-node fleet behind the gateway, then one node slowed
// 10x mid-phase by a response-delay fault that stays comfortably
// inside the health-probe timeout — the prober keeps the node "up"
// while every response through it drags. The gateway's per-node
// circuit breaker must open on the latency quantile, route the slow
// node's key range around it, trickle half-open probes, and close
// again after the fault clears at the phase's three-quarter mark; the
// oracle asserts the open and re-close transitions from the gateway's
// breaker metrics, fleet p99 under the ceiling throughout, and the
// usual zero lost/duplicated jobs. The gateway forwards each job poll
// once, to the owning node, so a poll of a job on the slowed node
// waits out the fault.
func builtinGrayfail(total time.Duration) *scenario {
	slice, mustMix := scenarioHelpers(total)
	return &scenario{
		Name:    "grayfail",
		Cluster: 3,
		Steps: []step{
			{Phase: &phaseSpec{Name: "warmup", Duration: slice(250), Rate: 40,
				Mix: mustMix("sync:3,async:5")}},
			{Phase: &phaseSpec{Name: "grayslow", Duration: slice(450), Rate: 60,
				Mix: mustMix("sync:3,async:4,cancel:1"), GraySlowMid: true}},
			{Phase: &phaseSpec{Name: "recovered", Duration: slice(200), Rate: 40,
				Mix: mustMix("sync:3,async:4")}},
			{Phase: &phaseSpec{Name: "cooldown", Duration: slice(100), Rate: 20,
				Mix: mustMix("sync:1")}},
		},
	}
}

// scenarioHelpers builds the builtin scenarios' shared scaling and
// mix-parsing closures. Phases never shrink below one second, so very
// short total durations stretch slightly rather than degenerate.
func scenarioHelpers(total time.Duration) (func(int) time.Duration, func(string) workload.Mix) {
	slice := func(permil int) time.Duration {
		d := total * time.Duration(permil) / 1000
		if d < time.Second {
			d = time.Second
		}
		return d.Round(10 * time.Millisecond)
	}
	mustMix := func(s string) workload.Mix {
		m, err := workload.ParseMix(s)
		if err != nil {
			panic(err) // fixture specs
		}
		return m
	}
	return slice, mustMix
}
