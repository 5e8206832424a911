package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process started by the benchmark.
type proc struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
	log  *os.File
}

// startProc execs bin with args plus -addr on the given loopback port;
// its log goes to dir/name.log.
func startProc(bin, name, dir string, port int, args ...string) (*proc, error) {
	log, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, base: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: log}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState in stop
		close(p.done)
	}()
	return p, nil
}

// freePorts returns n distinct free loopback ports: all n are held
// open together, so the kernel cannot hand out one twice.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// waitHealthy polls /healthz until it answers 200 with a body that
// contains want.
func (p *proc) waitHealthy(want string, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
		default:
		}
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			var b bytes.Buffer
			b.ReadFrom(resp.Body) //nolint:errcheck // a short read fails the Contains check
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(b.String(), want) {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not healthy within %v", p.name, limit)
}

// stop sends SIGTERM and requires a clean exit with status 0.
func (p *proc) stop() error {
	defer p.log.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("%s: SIGTERM: %w", p.name, err)
	}
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // already failing; reaped below
		<-p.done
		return fmt.Errorf("%s did not exit within 20s of SIGTERM", p.name)
	}
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("%s exited with status %d (see %s)", p.name, code, p.log.Name())
	}
	return nil
}

// kill ends a process on a failure path.
func (p *proc) kill() {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Kill() //nolint:errcheck // reaped below
		<-p.done
	}
	p.log.Close()
}

// vmHWM returns the process's peak resident set in bytes.
func (p *proc) vmHWM() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// cpuSeconds returns the CPU time (user and system) the process has
// used.
func (p *proc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the line, in clock ticks.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.name)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.name)
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// topology is the set of server processes one workload runs against.
type topology struct {
	dir     string
	nodes   []*proc
	gateway *proc // nil for the direct workloads
}

// entry is the base URL the load generator talks to.
func (t *topology) entry() string {
	if t.gateway != nil {
		return t.gateway.base
	}
	return t.nodes[0].base
}

func (t *topology) all() []*proc {
	ps := append([]*proc(nil), t.nodes...)
	if t.gateway != nil {
		ps = append(ps, t.gateway)
	}
	return ps
}

// startTopology execs the workload's prebuilt servers in dir and waits
// until each answers /healthz (the gateway with every node up).
// traced servers keep every request's spans for /debug/requests.
func startTopology(spec *workloadSpec, binDir, dir string, traced bool) (*topology, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(spec.nodes + 1) // the last one for the gateway
	if err != nil {
		return nil, err
	}
	t := &topology{dir: dir}
	for i := 0; i < spec.nodes; i++ {
		var args []string
		if traced {
			args = append(args, "-trace-min=-1ns")
		}
		if spec.gateway {
			id := fmt.Sprintf("n%d", i+1)
			args = append(args, "-node-id", id, "-wal-dir", filepath.Join(dir, "wal-"+id))
		}
		p, err := startProc(filepath.Join(binDir, "rcaserve"), fmt.Sprintf("rcaserve-%d", i+1), dir, ports[i], args...)
		if err != nil {
			t.kill()
			return nil, err
		}
		t.nodes = append(t.nodes, p)
	}
	for i, p := range t.nodes {
		want := "ok" // a cluster node also names itself
		if spec.gateway {
			want = fmt.Sprintf("node n%d", i+1)
		}
		if err := p.waitHealthy(want, 10*time.Second); err != nil {
			t.kill()
			return nil, err
		}
	}
	if !spec.gateway {
		return t, nil
	}
	members := make([]string, len(t.nodes))
	for i, p := range t.nodes {
		members[i] = fmt.Sprintf("n%d=%s", i+1, p.base)
	}
	g, err := startProc(filepath.Join(binDir, "rcagate"), "rcagate", dir, ports[spec.nodes], "-nodes", strings.Join(members, ","))
	if err != nil {
		t.kill()
		return nil, err
	}
	t.gateway = g
	if err := g.waitHealthy(fmt.Sprintf("nodes %d/%d", spec.nodes, spec.nodes), 10*time.Second); err != nil {
		t.kill()
		return nil, err
	}
	return t, nil
}

// rssBytes sums the peak resident sets of the server processes.
func (t *topology) rssBytes() (float64, error) {
	var sum float64
	for _, p := range t.all() {
		b, err := p.vmHWM()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return sum, nil
}

// cpuSeconds sums the CPU time of the server processes.
func (t *topology) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range t.all() {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// stop ends the gateway first, then the nodes, each with SIGTERM and
// a required exit status 0, and removes the WAL directories after a
// clean stop.
func (t *topology) stop() error {
	var errs []string
	if t.gateway != nil {
		if err := t.gateway.stop(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	for _, p := range t.nodes {
		if err := p.stop(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("dirty stop: %s", strings.Join(errs, "; "))
	}
	return os.RemoveAll(t.dir)
}

func (t *topology) kill() {
	for _, p := range t.all() {
		p.kill()
	}
}
