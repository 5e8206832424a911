// Command rcasoak is the soak & chaos harness for rcaserve. It builds
// the real server binary, execs it, drives an hours-compressed mixed
// workload against it from independent client driver processes
// (rcasoak re-execs itself with -driver), injects faults through the
// server's -faults hook, SIGTERMs and restarts — or SIGKILLs, when
// the scenario says kill — the server mid-load, and finally runs an
// invariant oracle over everything observed: zero lost or duplicated
// jobs, results matching local reference solves, p99 latency and RSS
// under their ceilings, no goroutine or fd leaks, and clean
// signal-initiated exits. With -wal-dir the server runs its
// write-ahead log and the oracle hardens: no loss is excused by any
// restart or kill window — every accepted job must resurface after
// replay. The verdict is a machine-readable JSON report plus the
// process exit code (0 pass, 1 invariant violations, 2 harness
// error).
//
// Usage:
//
//	rcasoak [flags]
//
// Flags:
//
//	-duration duration   total load duration for the builtin scenario (default 60s)
//	-clients int         driver processes per phase (default 8)
//	-seed int            base seed for the deterministic traffic streams (default 1)
//	-scenario string     "mixed", "crash", "cluster" or "grayfail" (builtin,
//	                     scaled to -duration) or a scenario file path
//	-report string       JSON report path (default "soak-report.json")
//	-wal-dir string      server WAL directory: durability on, loss never excused (default off)
//	-grace duration      post-phase polling grace for async jobs (default 10s)
//	-race                build the servers with the race detector
//
// Every server starts with -faults "delay=20ms:4,error=128", -queue 128
// (small, so the overload wave meets real 429s) and -timeout 2s. The
// oracle's ceilings are a 5s per-class p99 round trip and 512 MiB peak
// RSS per process. The work directory (server logs) is kept only when
// the run fails.
//
// Example:
//
//	go run ./cmd/rcasoak -duration 60s -clients 8 -seed 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dspaddr/internal/api"
	"dspaddr/internal/obs"
	"dspaddr/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("rcasoak", flag.ContinueOnError)
	duration := fs.Duration("duration", 60*time.Second, "total load duration (builtin scenario)")
	clients := fs.Int("clients", 8, "driver processes per phase")
	seed := fs.Int64("seed", 1, "base traffic seed")
	scenarioFlag := fs.String("scenario", "mixed", `"mixed", "crash", "cluster", "grayfail" or a scenario file path`)
	reportPath := fs.String("report", "soak-report.json", "JSON report path")
	walDir := fs.String("wal-dir", "",
		"server WAL directory (durability on; the oracle then excuses no lost jobs; removed on a clean pass unless it pre-existed)")
	grace := fs.Duration("grace", 10*time.Second, "post-phase async polling grace")
	race := fs.Bool("race", false, "build the server with the race detector")

	// -driver mode flags (internal; the parent passes them).
	driverMode := fs.Bool("driver", false, "run as a client driver (internal)")
	dBase := fs.String("base", "", "server base URL (driver mode)")
	dIndex := fs.Int("index", 0, "driver ordinal (driver mode)")
	dRate := fs.Int("rate", 10, "ops/second (driver mode)")
	dMix := fs.String("mix", "sync:1", "traffic mix (driver mode)")
	dFresh := fs.Int("fresh", 0, "unique-pattern permil (driver mode)")
	dBurst := fs.Int("burst", 32, "jobs per burst (driver mode)")
	dRunFor := fs.Duration("run-for", time.Second, "issuing window (driver mode)")

	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *driverMode {
		mix, err := workload.ParseMix(*dMix)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcasoak driver:", err)
			return 2
		}
		err = runDriver(driverConfig{
			base:        *dBase,
			index:       *dIndex,
			seed:        *seed,
			rate:        *dRate,
			mix:         mix,
			freshPermil: *dFresh,
			burst:       *dBurst,
			runFor:      *dRunFor,
			grace:       *grace,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcasoak driver:", err)
			return 2
		}
		return 0
	}

	h := &harness{
		clients: *clients,
		seed:    *seed,
		grace:   *grace,
		race:    *race,
		walDir:  *walDir,
	}
	sc, err := loadScenario(*scenarioFlag, *duration)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcasoak:", err)
		return 2
	}
	rep, err := h.run(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcasoak:", err)
		return 2
	}
	if err := writeReport(rep, *reportPath); err != nil {
		fmt.Fprintln(os.Stderr, "rcasoak:", err)
		return 2
	}
	if !rep.Passed {
		return 1
	}
	return 0
}

// loadScenario resolves the -scenario flag.
func loadScenario(name string, total time.Duration) (*scenario, error) {
	switch name {
	case "mixed":
		return builtinMixed(total), nil
	case "crash":
		return builtinCrash(total), nil
	case "cluster":
		return builtinCluster(total), nil
	case "grayfail":
		return builtinGrayfail(total), nil
	}
	text, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	return parseScenario(filepath.Base(name), string(text))
}

// The settings every run uses: the servers' flags and the oracle's
// ceilings.
const (
	// baseFaults is the fault spec armed at every server start; its
	// solve delays are what the slow-trace check expects to see.
	baseFaults = "delay=20ms:4,error=128"
	// serverQueue is the async queue capacity: small, so the overload
	// wave meets real 429s.
	serverQueue = 128
	// serverTimeout is the per-job solve deadline.
	serverTimeout = 2 * time.Second
	// p99Ceiling bounds each op class's p99 HTTP round trip.
	p99Ceiling = 5 * time.Second
	// rssCeiling bounds every process's peak RSS.
	rssCeiling = 512 << 20
)

// harness owns the server process and the run-wide observations.
type harness struct {
	clients int
	seed    int64
	grace   time.Duration
	race    bool
	// walDir, when set, is passed to every server start as -wal-dir
	// (fsync=interval); it persists across restarts AND kills — replay
	// continuity is the whole point.
	walDir        string
	walDirCreated bool

	workDir string
	bin     string
	port    int
	base    string // http://127.0.0.1:port (the gateway in cluster mode)
	client  *http.Client

	// Cluster topology (scenario.Cluster > 0): N rcaserve nodes behind
	// one rcagate gateway; drivers target the gateway. nodeProcs slots
	// go nil when killnode removes a node permanently.
	cluster   int
	gateBin   string
	nodeBases []string
	nodePorts []int

	mu         sync.Mutex
	srv        *serverProc
	nodeProcs  []*serverProc
	gateway    *serverProc
	exits      []int
	restarts   []restartWindow
	kills      []restartWindow
	nodeKills  []nodeKill
	grayEvents []grayEvent
	maxRSS     atomic.Int64

	collected  []ledger // driver ledgers across all phases
	serverLogs int      // serial for log file names
}

// serverProc is one exec'd rcaserve.
type serverProc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when Wait returns
	code int
}

// run executes the scenario end to end and returns the oracle report.
func (h *harness) run(sc *scenario) (rep *soakReport, err error) {
	start := time.Now()
	h.client = &http.Client{Timeout: 5 * time.Second}

	h.workDir, err = os.MkdirTemp("", "rcasoak-*")
	if err != nil {
		return nil, err
	}
	if h.walDir != "" {
		if _, statErr := os.Stat(h.walDir); os.IsNotExist(statErr) {
			h.walDirCreated = true
		}
		if err := os.MkdirAll(h.walDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating WAL directory: %w", err)
		}
	}
	defer func() {
		if err == nil && rep != nil && rep.Passed {
			os.RemoveAll(h.workDir)
			// The WAL dir is evidence on failure (CI uploads it); on a
			// clean pass remove it if this run created it.
			if h.walDirCreated {
				os.RemoveAll(h.walDir)
			}
		} else {
			fmt.Fprintf(os.Stderr, "rcasoak: work directory kept at %s\n", h.workDir)
			if h.walDir != "" {
				fmt.Fprintf(os.Stderr, "rcasoak: WAL directory kept at %s\n", h.walDir)
			}
		}
	}()

	h.cluster = sc.Cluster
	if h.bin, err = h.build("rcaserve"); err != nil {
		return nil, err
	}
	if h.cluster > 0 {
		if h.gateBin, err = h.build("rcagate"); err != nil {
			return nil, err
		}
		if err := h.startCluster(); err != nil {
			return nil, err
		}
	} else {
		if h.port, err = pickPort(); err != nil {
			return nil, err
		}
		h.base = fmt.Sprintf("http://127.0.0.1:%d", h.port)
		if err := h.startServer(); err != nil {
			return nil, err
		}
	}
	defer h.killAll() // belt and braces; normally already exited

	// RSS sampler follows the current server process across restarts.
	samplerStop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-t.C:
				h.sampleRSS()
			}
		}
	}()
	defer func() { close(samplerStop); samplerWG.Wait() }()

	time.Sleep(300 * time.Millisecond) // settle before the baseline
	baseline, _ := h.debugSnapshot()
	metricsBaseline, _ := h.scrapeMetrics()

	for i, st := range sc.Steps {
		switch {
		case st.Restart:
			fmt.Fprintf(os.Stderr, "rcasoak: restart (between phases)\n")
			if err := h.restartServer(); err != nil {
				return nil, err
			}
		case st.Kill:
			fmt.Fprintf(os.Stderr, "rcasoak: SIGKILL (between phases)\n")
			if err := h.crashServer(); err != nil {
				return nil, err
			}
		case st.Phase != nil:
			fmt.Fprintf(os.Stderr, "rcasoak: phase %q (%v, rate %d, mix %s)\n",
				st.Phase.Name, st.Phase.Duration, st.Phase.Rate, st.Phase.Mix)
			if err := h.runPhase(st.Phase, i); err != nil {
				return nil, err
			}
		}
	}

	// Load has stopped; settle, close our own keepalive conns and take
	// the final leak snapshot from the surviving server process.
	time.Sleep(500 * time.Millisecond)
	h.client.CloseIdleConnections()
	time.Sleep(200 * time.Millisecond)
	final, _ := h.debugSnapshot()
	stats, statsOK := h.finalStats()
	metricsFinal, metricsOK := h.scrapeMetrics()
	slowTraces, slowOK := h.scrapeSlowTraces()
	breakerTransitions, breakerStates, breakersOK := h.scrapeGatewayBreakers()

	if err := h.stopAll(); err != nil {
		return nil, err
	}

	in := oracleInput{
		scenario:           sc,
		seed:               h.seed,
		clients:            h.clients,
		elapsed:            time.Since(start),
		ledgers:            h.collected,
		restarts:           h.restarts,
		kills:              h.kills,
		clusterNodes:       h.cluster,
		nodeKills:          h.nodeKills,
		grayEvents:         h.grayEvents,
		breakerTransitions: breakerTransitions,
		breakerStates:      breakerStates,
		breakersFetched:    breakersOK,
		walEnabled:         h.walDir != "",
		serverExits:        h.exits,
		maxRSS:             h.maxRSS.Load(),
		baselineGoroutines: baseline.Goroutines,
		finalGoroutines:    final.Goroutines,
		baselineFDs:        baseline.OpenFDs,
		finalFDs:           final.OpenFDs,
		statsFetched:       statsOK,
		p99Ceiling:         p99Ceiling,
		rssCeiling:         rssCeiling,
		metricsBaseline:    metricsBaseline,
		metricsFinal:       metricsFinal,
		metricsFetched:     metricsOK,
		slowTraces:         slowTraces,
		slowTracesFetched:  slowOK,
		delayFaultsArmed:   true, // baseFaults arms solve delays
	}
	if statsOK {
		in.statsSubmitted = stats.AsyncJobs.Submitted
		in.statsTerminalPlusLive = stats.AsyncJobs.Done + stats.AsyncJobs.Failed +
			stats.AsyncJobs.TimedOut + stats.AsyncJobs.Canceled +
			uint64(stats.AsyncJobs.QueueDepth) + uint64(stats.AsyncJobs.Running)
		in.statsRecovered = stats.AsyncJobs.Recovered
	}
	return runOracle(in), nil
}

// build compiles dspaddr/cmd/<name> into the work directory.
func (h *harness) build(name string) (string, error) {
	bin := filepath.Join(h.workDir, name)
	args := []string{"build"}
	if h.race {
		args = append(args, "-race")
	}
	args = append(args, "-o", bin, "dspaddr/cmd/"+name)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// pickPort grabs a free localhost port.
func pickPort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn execs one binary with its output in a fresh work-dir log and
// a goroutine collecting the exit code.
func (h *harness) spawn(logName, bin string, args []string) (*serverProc, string, error) {
	h.serverLogs++
	logPath := filepath.Join(h.workDir, fmt.Sprintf("%s-%d.log", logName, h.serverLogs))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, "", fmt.Errorf("starting %s: %w", logName, err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer logFile.Close()
		err := cmd.Wait()
		p.code = cmd.ProcessState.ExitCode()
		_ = err
	}()
	return p, logPath, nil
}

// awaitHealthy polls a process's /healthz until 200, early process
// death, or a 10s deadline.
func (h *harness) awaitHealthy(p *serverProc, base, logPath string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := h.client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("process exited during startup (code %d); log: %s", p.code, logPath)
		default:
		}
		if time.Now().After(deadline) {
			p.cmd.Process.Kill() //nolint:errcheck
			return fmt.Errorf("process never became healthy; log: %s", logPath)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// serverArgs builds one rcaserve invocation. nodeID and walSub are
// empty in the single-server topology; cluster nodes each get their
// own identity and WAL subdirectory.
func (h *harness) serverArgs(port int, nodeID string) []string {
	args := []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-faults", baseFaults,
		"-queue", strconv.Itoa(serverQueue),
		"-timeout", serverTimeout.String(),
		"-ttl", "2m",
	}
	if nodeID != "" {
		args = append(args, "-node-id", nodeID)
	}
	if h.walDir != "" {
		dir := h.walDir
		if nodeID != "" {
			dir = filepath.Join(h.walDir, nodeID)
		}
		args = append(args, "-wal-dir", dir, "-wal-fsync", "interval")
	}
	return args
}

// startServer execs rcaserve and waits for /healthz (single-server
// topology).
func (h *harness) startServer() error {
	p, logPath, err := h.spawn("server", h.bin, h.serverArgs(h.port, ""))
	if err != nil {
		return err
	}
	if err := h.awaitHealthy(p, h.base, logPath); err != nil {
		return err
	}
	h.mu.Lock()
	h.srv = p
	h.mu.Unlock()
	return nil
}

// nodeHealthWindow bounds how long the gateway may take to notice a
// SIGKILLed node and rehash its keys: the harness arms 250ms probes
// with the default fail threshold of 2, so mark-down lands well
// inside this window; the oracle rejects any job the fleet routed to
// the dead node after it closes.
const nodeHealthWindow = 3 * time.Second

// startCluster stands up the fleet: h.cluster rcaserve nodes (named
// n1..nN, each with its own WAL subdirectory when durability is on)
// and one rcagate gateway in front; drivers then target the gateway.
func (h *harness) startCluster() error {
	ports := make([]int, h.cluster+1)
	for i := range ports {
		p, err := pickPort()
		if err != nil {
			return err
		}
		ports[i] = p
	}
	h.nodePorts = ports[:h.cluster]
	h.nodeBases = make([]string, h.cluster)
	h.nodeProcs = make([]*serverProc, h.cluster)
	var nodesSpec []string
	for i := 0; i < h.cluster; i++ {
		name := fmt.Sprintf("n%d", i+1)
		h.nodeBases[i] = fmt.Sprintf("http://127.0.0.1:%d", h.nodePorts[i])
		p, logPath, err := h.spawn("node-"+name, h.bin, h.serverArgs(h.nodePorts[i], name))
		if err != nil {
			return err
		}
		h.nodeProcs[i] = p
		if err := h.awaitHealthy(p, h.nodeBases[i], logPath); err != nil {
			return err
		}
		nodesSpec = append(nodesSpec, fmt.Sprintf("%s=%s", name, h.nodeBases[i]))
	}
	gatePort := ports[h.cluster]
	h.base = fmt.Sprintf("http://127.0.0.1:%d", gatePort)
	gw, logPath, err := h.spawn("gateway", h.gateBin, []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", gatePort),
		"-nodes", strings.Join(nodesSpec, ","),
		"-probe-interval", "250ms",
	})
	if err != nil {
		return err
	}
	if err := h.awaitHealthy(gw, h.base, logPath); err != nil {
		return err
	}
	h.mu.Lock()
	h.gateway = gw
	h.mu.Unlock()
	return nil
}

// graySlowSpec is the response-delay fault the grayslow directive
// arms: 300ms per response is an order of magnitude over a healthy
// hop yet comfortably inside the gateway's 1s probe timeout, so the
// health checker keeps the node "up" the whole time — only the
// breakers' latency-quantile trip can eject it.
const graySlowSpec = "resp-delay=300ms"

// graySlowNode arms the gray-failure fault on the highest-indexed
// live node, holds it for d, then restores the base spec, recording
// the window for the oracle's breaker assertions. The node is never
// stopped: the failure mode under test is slow-but-alive.
func (h *harness) graySlowNode(d time.Duration) error {
	h.mu.Lock()
	idx := -1
	for i := len(h.nodeProcs) - 1; i >= 0; i-- {
		if h.nodeProcs[i] != nil {
			idx = i
			break
		}
	}
	h.mu.Unlock()
	if idx < 0 {
		return fmt.Errorf("no live node to slow")
	}
	name := fmt.Sprintf("n%d", idx+1)
	start := time.Now()
	if err := h.rearmAt(h.nodeBases[idx], baseFaults+","+graySlowSpec); err != nil {
		return fmt.Errorf("arming gray-slow fault on %s: %w", name, err)
	}
	time.Sleep(d)
	if err := h.rearmAt(h.nodeBases[idx], baseFaults); err != nil {
		return fmt.Errorf("clearing gray-slow fault on %s: %w", name, err)
	}
	h.mu.Lock()
	h.grayEvents = append(h.grayEvents, grayEvent{
		Node:   name,
		Window: restartWindow{Start: start, End: time.Now()},
	})
	h.mu.Unlock()
	return nil
}

// killNodeMid SIGKILLs the highest-indexed live node and leaves it
// dead: no drain, no replacement, no replay — the fleet must absorb
// the loss. The recorded window ends after the gateway's health-check
// machinery is guaranteed to have rehashed the node's key range.
func (h *harness) killNodeMid() error {
	h.mu.Lock()
	idx := -1
	for i := len(h.nodeProcs) - 1; i >= 0; i-- {
		if h.nodeProcs[i] != nil {
			idx = i
			break
		}
	}
	var p *serverProc
	if idx >= 0 {
		p = h.nodeProcs[idx]
		h.nodeProcs[idx] = nil
	}
	h.mu.Unlock()
	if p == nil {
		return fmt.Errorf("no live node to kill")
	}
	name := fmt.Sprintf("n%d", idx+1)
	now := time.Now()
	if err := p.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL node %s: %w", name, err)
	}
	<-p.done
	h.mu.Lock()
	h.nodeKills = append(h.nodeKills, nodeKill{
		Node:   name,
		Window: restartWindow{Start: now, End: now.Add(nodeHealthWindow)},
	})
	h.mu.Unlock()
	return nil
}

// stopAll SIGTERMs every process the scenario left alive — the single
// server, or the gateway plus surviving nodes — and records the exit
// codes the clean-shutdown invariant checks.
func (h *harness) stopAll() error {
	if h.cluster == 0 {
		code, err := h.stopServer()
		if err != nil {
			return err
		}
		h.mu.Lock()
		h.exits = append(h.exits, code)
		h.mu.Unlock()
		return nil
	}
	h.mu.Lock()
	gw := h.gateway
	h.gateway = nil
	nodes := append([]*serverProc(nil), h.nodeProcs...)
	for i := range h.nodeProcs {
		h.nodeProcs[i] = nil
	}
	h.mu.Unlock()
	if gw != nil {
		code, err := stopProc(gw)
		if err != nil {
			return fmt.Errorf("gateway: %w", err)
		}
		h.exits = append(h.exits, code)
	}
	for i, p := range nodes {
		if p == nil {
			continue // killed by the scenario
		}
		code, err := stopProc(p)
		if err != nil {
			return fmt.Errorf("node n%d: %w", i+1, err)
		}
		h.exits = append(h.exits, code)
	}
	return nil
}

// stopServer SIGTERMs the current server and waits for a clean exit.
func (h *harness) stopServer() (int, error) {
	h.mu.Lock()
	p := h.srv
	h.srv = nil
	h.mu.Unlock()
	if p == nil {
		return -1, fmt.Errorf("no server to stop")
	}
	return stopProc(p)
}

// stopProc SIGTERMs one process and waits for a clean exit, escalating
// to SIGKILL after 20s.
func stopProc(p *serverProc) (int, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-p.done:
		return p.code, nil
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck
		<-p.done
		return p.code, fmt.Errorf("process ignored SIGTERM for 20s (exit %d after SIGKILL)", p.code)
	}
}

// killAll force-stops every leftover process (cleanup path only).
func (h *harness) killAll() {
	h.mu.Lock()
	procs := []*serverProc{h.srv, h.gateway}
	procs = append(procs, h.nodeProcs...)
	h.srv, h.gateway = nil, nil
	for i := range h.nodeProcs {
		h.nodeProcs[i] = nil
	}
	h.mu.Unlock()
	for _, p := range procs {
		if p != nil {
			p.cmd.Process.Kill() //nolint:errcheck
			<-p.done
		}
	}
}

// restartServer performs one SIGTERM + re-exec cycle and records the
// window during which job state could legitimately be lost.
func (h *harness) restartServer() error {
	w := restartWindow{Start: time.Now()}
	code, err := h.stopServer()
	if err != nil {
		return err
	}
	h.mu.Lock()
	h.exits = append(h.exits, code)
	h.mu.Unlock()
	if err := h.startServer(); err != nil {
		return err
	}
	w.End = time.Now()
	h.mu.Lock()
	h.restarts = append(h.restarts, w)
	h.mu.Unlock()
	return nil
}

// crashServer SIGKILLs the current server — no drain, no WAL flush,
// the exit code is the signal's and deliberately kept out of the
// clean-exit ledger — then starts a replacement against the same WAL
// directory and records the outage window. With durability on the
// oracle ignores these windows: a kill is exactly the crash the WAL
// must survive.
func (h *harness) crashServer() error {
	w := restartWindow{Start: time.Now()}
	h.mu.Lock()
	p := h.srv
	h.srv = nil
	h.mu.Unlock()
	if p == nil {
		return fmt.Errorf("no server to crash")
	}
	if err := p.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	<-p.done
	if err := h.startServer(); err != nil {
		return err
	}
	w.End = time.Now()
	h.mu.Lock()
	h.kills = append(h.kills, w)
	h.mu.Unlock()
	return nil
}

// sampleRSS reads /proc/<pid>/statm for every live process and tracks
// the largest single-process peak (the per-process ceiling is what the
// oracle gates; cluster nodes are independent servers).
func (h *harness) sampleRSS() {
	h.mu.Lock()
	procs := []*serverProc{h.srv, h.gateway}
	procs = append(procs, h.nodeProcs...)
	h.mu.Unlock()
	for _, p := range procs {
		if p == nil || p.cmd.Process == nil {
			continue
		}
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", p.cmd.Process.Pid))
		if err != nil {
			continue
		}
		fields := strings.Fields(string(raw))
		if len(fields) < 2 {
			continue
		}
		pages, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		rss := pages * int64(os.Getpagesize())
		for {
			cur := h.maxRSS.Load()
			if rss <= cur || h.maxRSS.CompareAndSwap(cur, rss) {
				break
			}
		}
	}
}

// diagBase is where the node-level debug endpoints live: the server
// itself, or node n1 in cluster mode (the gateway exposes neither
// /debug/soak nor /debug/requests, and killnode takes the
// highest-indexed node, so n1 always survives).
func (h *harness) diagBase() string {
	if h.cluster > 0 {
		return h.nodeBases[0]
	}
	return h.base
}

// debugSnapshot reads /debug/soak (zero snapshot on failure — the
// oracle skips leak checks it has no baseline for).
type debugSnapshot struct {
	Goroutines int `json:"goroutines"`
	OpenFDs    int `json:"openFDs"`
}

func (h *harness) debugSnapshot() (debugSnapshot, bool) {
	var snap debugSnapshot
	resp, err := h.client.Get(h.diagBase() + "/debug/soak")
	if err != nil {
		return snap, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, false
	}
	return snap, true
}

// metricsFamilies are the exposition families the harness records at
// baseline and at the end of the run (counters and histogram _count
// sums; restarts reset them, so deltas are per-final-process).
// The shed and canceled counters show in every report whether load
// shedding fired and how much abandoned work the engine reclaimed.
var metricsFamilies = []string{
	"rcaserve_http_requests_total",
	"rcaserve_jobs_submitted_total",
	"rcaserve_engine_jobs_total",
	"rcaserve_engine_cache_hits_total",
	"rcaserve_engine_canceled_total",
	"rcaserve_shed_total",
	"rcaserve_http_request_duration_seconds",
	"rcaserve_engine_solve_duration_seconds",
	"rcaserve_job_queue_wait_duration_seconds",
	"rcaserve_job_run_duration_seconds",
	"rcaserve_goroutines",
	"rcaserve_heap_bytes",
}

// scrapeMetrics fetches /metrics and folds the tracked families into
// scalars (counter sums; histogram families contribute their _count).
func (h *harness) scrapeMetrics() (map[string]float64, bool) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, false
	}
	out := make(map[string]float64, len(metricsFamilies))
	for _, name := range metricsFamilies {
		if fams[name] != nil {
			out[name] = obs.SumFamily(fams, name)
		}
	}
	return out, true
}

// scrapeSlowTraces pulls the slow/error traces the server retained,
// phase breakdowns included, capped so the report stays readable.
func (h *harness) scrapeSlowTraces() ([]obs.TraceSnapshot, bool) {
	resp, err := h.client.Get(h.diagBase() + "/debug/requests?min_ms=1&limit=8")
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	var body struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, false
	}
	return body.Traces, true
}

// scrapeGatewayBreakers reads the gateway's breaker families: the
// transition counter folded by destination state (summed across
// nodes) and the final per-node state gauge. Cluster mode only.
func (h *harness) scrapeGatewayBreakers() (transitions, states map[string]float64, ok bool) {
	if h.cluster == 0 {
		return nil, nil, false
	}
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return nil, nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, false
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, nil, false
	}
	transitions = map[string]float64{}
	if f := fams["rcagate_breaker_transitions_total"]; f != nil {
		for _, s := range f.Samples {
			transitions[s.Labels["to"]] += s.Value
		}
	}
	states = map[string]float64{}
	if f := fams["rcagate_breaker_state"]; f != nil {
		for _, s := range f.Samples {
			states[s.Labels["node"]] = s.Value
		}
	}
	return transitions, states, true
}

// rearm POSTs a new fault spec to /debug/soak — on every surviving
// node in cluster mode, since faults are per-process state.
func (h *harness) rearm(spec string) error {
	for _, base := range h.rearmTargets() {
		if err := h.rearmAt(base, spec); err != nil {
			return err
		}
	}
	return nil
}

// rearmAt re-arms one process's fault injector.
func (h *harness) rearmAt(base, spec string) error {
	body, _ := json.Marshal(map[string]string{"faults": spec})
	resp, err := h.client.Post(base+"/debug/soak", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("re-arming faults at %s: %w", base, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("re-arming faults at %s: status %d", base, resp.StatusCode)
	}
	return nil
}

// rearmTargets lists the node base URLs that hold fault state.
func (h *harness) rearmTargets() []string {
	if h.cluster == 0 {
		return []string{h.base}
	}
	var out []string
	h.mu.Lock()
	for i, p := range h.nodeProcs {
		if p != nil {
			out = append(out, h.nodeBases[i])
		}
	}
	h.mu.Unlock()
	return out
}

// finalStats fetches /v1/stats for the accounting identity.
func (h *harness) finalStats() (api.Stats, bool) {
	if h.cluster == 0 {
		return fetchStats(h.client, h.base)
	}
	// Cluster: sum the per-node stats across survivors. Each node's
	// accounting identity holds independently, so the sums do too; a
	// node that won't answer voids the check rather than skewing it.
	var sum api.Stats
	for _, base := range h.rearmTargets() {
		st, ok := fetchStats(h.client, base)
		if !ok {
			return sum, false
		}
		sum.AsyncJobs.QueueDepth += st.AsyncJobs.QueueDepth
		sum.AsyncJobs.Running += st.AsyncJobs.Running
		sum.AsyncJobs.Submitted += st.AsyncJobs.Submitted
		sum.AsyncJobs.Done += st.AsyncJobs.Done
		sum.AsyncJobs.Failed += st.AsyncJobs.Failed
		sum.AsyncJobs.TimedOut += st.AsyncJobs.TimedOut
		sum.AsyncJobs.Canceled += st.AsyncJobs.Canceled
		sum.AsyncJobs.Recovered += st.AsyncJobs.Recovered
	}
	return sum, true
}

func fetchStats(client *http.Client, base string) (api.Stats, bool) {
	var st api.Stats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return st, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, false
	}
	return st, true
}

// runPhase spawns the phase's driver wave (and the mid-phase restart,
// when scheduled) and collects the ledgers.
func (h *harness) runPhase(p *phaseSpec, phaseIdx int) error {
	if p.Faults != "" {
		if err := h.rearm(p.Faults); err != nil {
			return err
		}
		defer func() {
			if err := h.rearm(baseFaults); err != nil {
				fmt.Fprintf(os.Stderr, "rcasoak: restoring base faults: %v\n", err)
			}
		}()
	}

	perDriver := p.Rate / h.clients
	if perDriver < 1 {
		perDriver = 1
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	type driverRun struct {
		cmd *exec.Cmd
		out *bytes.Buffer
	}
	runs := make([]driverRun, h.clients)
	for c := 0; c < h.clients; c++ {
		args := []string{
			"-driver",
			"-base", h.base,
			"-index", strconv.Itoa(phaseIdx*1000 + c),
			"-seed", strconv.FormatInt(h.seed*1_000_003+int64(phaseIdx)*1009+int64(c), 10),
			"-rate", strconv.Itoa(perDriver),
			"-mix", p.Mix.String(),
			"-burst", "32",
			"-run-for", p.Duration.String(),
			"-grace", h.grace.String(),
		}
		if p.FreshPermil > 0 {
			args = append(args, "-fresh", strconv.Itoa(p.FreshPermil))
		}
		cmd := exec.Command(self, args...)
		out := &bytes.Buffer{}
		cmd.Stdout = out
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting driver %d: %w", c, err)
		}
		runs[c] = driverRun{cmd: cmd, out: out}
	}

	// Mid-phase restart or SIGKILL under load.
	restartErr := make(chan error, 1)
	switch {
	case p.RestartMid:
		go func() {
			time.Sleep(p.Duration / 2)
			fmt.Fprintf(os.Stderr, "rcasoak: restart (mid-phase, under load)\n")
			restartErr <- h.restartServer()
		}()
	case p.KillMid:
		go func() {
			time.Sleep(p.Duration / 2)
			fmt.Fprintf(os.Stderr, "rcasoak: SIGKILL (mid-phase, under load)\n")
			restartErr <- h.crashServer()
		}()
	case p.KillNodeMid:
		go func() {
			time.Sleep(p.Duration / 2)
			fmt.Fprintf(os.Stderr, "rcasoak: SIGKILL fleet node (mid-phase, under load)\n")
			restartErr <- h.killNodeMid()
		}()
	case p.GraySlowMid:
		go func() {
			time.Sleep(p.Duration / 2)
			fmt.Fprintf(os.Stderr, "rcasoak: gray-slowing fleet node (resp-delay, mid-phase, under load)\n")
			restartErr <- h.graySlowNode(p.Duration / 4)
		}()
	default:
		restartErr <- nil
	}

	for c, r := range runs {
		if err := r.cmd.Wait(); err != nil {
			return fmt.Errorf("driver %d (phase %s) failed: %v\nstdout: %s",
				c, p.Name, err, r.out.String())
		}
		var led ledger
		if err := json.Unmarshal(r.out.Bytes(), &led); err != nil {
			return fmt.Errorf("driver %d (phase %s): bad ledger: %v", c, p.Name, err)
		}
		h.collected = append(h.collected, led)
	}
	if err := <-restartErr; err != nil {
		return fmt.Errorf("mid-phase restart: %w", err)
	}
	return nil
}
