package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The paper's reference scale and the two cores of the reference box: every
// daemon is started with the same repository and the same CPU budget.
const (
	servedNodes = 9759
	servedSeed  = 1
)

var daemonBaseArgs = []string{"-workers", "2", "-synthetic", strconv.Itoa(servedNodes), "-seed", strconv.Itoa(servedSeed)}

const (
	healthDeadline = 10 * time.Second
	clockTicksHz   = 100 // USER_HZ; fixed at 100 on every Linux ABI Go supports
)

// daemon is one bellflower-server subprocess in its own process group.
type daemon struct {
	name    string
	addr    string
	cmd     *exec.Cmd
	logPath string
}

// live tracks every running daemon so that exit paths — normal return,
// panic, SIGINT/SIGTERM — can kill them all; no run may leave an orphan.
var live struct {
	sync.Mutex
	daemons map[*daemon]struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon spawns the server binary on a free loopback port with stderr
// going to logDir/<name>.log. It does not wait for the daemon to be ready.
func startDaemon(bin, logDir, name string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(logDir, name+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	defer logFile.Close() // the child holds its own descriptor
	args := append(append([]string{"-addr", addr}, daemonBaseArgs...), extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stderr = logFile
	// Own process group, so one signal reaches whatever the daemon spawns;
	// Pdeathsig covers the one exit path no handler sees, SIGKILL of the
	// benchmark itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, addr: addr, cmd: cmd, logPath: logPath}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.Lock()
	if live.daemons == nil {
		live.daemons = make(map[*daemon]struct{})
	}
	live.daemons[d] = struct{}{}
	live.Unlock()
	return d, nil
}

// waitHealthy polls /healthz until it answers 200. On a timeout, or when
// the process dies first, the error carries the tail of the daemon's
// stderr.
func (d *daemon) waitHealthy(hc *http.Client) error {
	deadline := time.Now().Add(healthDeadline)
	url := "http://" + d.addr + "/healthz"
	for {
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if !d.alive() {
			return fmt.Errorf("%s exited before becoming healthy; stderr tail:\n%s", d.name, d.logTail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v (%v); stderr tail:\n%s", d.name, healthDeadline, err, d.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

// alive reports whether the process still exists and is not a zombie.
func (d *daemon) alive() bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return false
	}
	i := bytes.LastIndexByte(b, ')')
	return i >= 0 && i+2 < len(b) && b[i+2] != 'Z'
}

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return err.Error()
	}
	const tail = 2048
	if len(b) > tail {
		b = b[len(b)-tail:]
	}
	return string(b)
}

// stop kills the daemon's process group and waits for the process to end.
func (d *daemon) stop() {
	live.Lock()
	_, running := live.daemons[d]
	delete(live.daemons, d)
	live.Unlock()
	if !running {
		return
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // ESRCH: already gone
	_ = d.cmd.Wait()                                      // "signal: killed" is the expected outcome
}

// stopAll kills every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.daemons))
	for d := range live.daemons {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// cpuSeconds returns the user+system CPU time the daemon has consumed.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPUTicks(b)
	return float64(ticks) / clockTicksHz, err
}

// peakRSSMB returns the daemon's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWMKB(b)
	return float64(kb) / 1024, err
}

// parseStatCPUTicks extracts utime+stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name (field 2) may itself
// contain spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPUTicks(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(string(stat[i+1:])) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseVmHWMKB extracts the VmHWM line (peak resident set, kB) from the
// contents of /proc/<pid>/status.
func parseVmHWMKB(status []byte) (uint64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// fleet is the running topology of one workload: the daemons and the
// address of the public API.
type fleet struct {
	daemons []*daemon
	public  string
}

// startFleet brings the topology up and returns once the public /healthz
// answers 200. took is the time from spawning the first process to that
// answer — the set-up cost a user of the system pays.
func startFleet(bin, logDir string, topo topology, hc *http.Client) (f *fleet, took time.Duration, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	t0 := time.Now()
	spawn := func(name string, extra ...string) (*daemon, error) {
		d, err := startDaemon(bin, logDir, name, extra...)
		if err != nil {
			return nil, err
		}
		f.daemons = append(f.daemons, d)
		return d, nil
	}
	switch topo {
	case topoSingleNoCache, topoSingleCached:
		var extra []string
		if topo == topoSingleNoCache {
			extra = []string{"-cache", "-1"}
		}
		d, err := spawn("server", extra...)
		if err != nil {
			return f, 0, err
		}
		f.public = d.addr
	case topoDist2:
		// The router verifies its shards' descriptors when it is
		// constructed, so both shards must be serving before it starts.
		var addrs []string
		for k := 0; k < 2; k++ {
			d, err := spawn(fmt.Sprintf("shard%d", k), "-shard-of", fmt.Sprintf("%d/2", k), "-wire-codec", "binary")
			if err != nil {
				return f, 0, err
			}
			addrs = append(addrs, d.addr)
		}
		for _, d := range f.daemons {
			if err := d.waitHealthy(hc); err != nil {
				return f, 0, err
			}
		}
		d, err := spawn("router", "-remote-shards", strings.Join(addrs, ","), "-wire-codec", "binary")
		if err != nil {
			return f, 0, err
		}
		f.public = d.addr
	}
	if err := f.daemons[len(f.daemons)-1].waitHealthy(hc); err != nil {
		return f, 0, err
	}
	return f, time.Since(t0), nil
}

func (f *fleet) stop() {
	for _, d := range f.daemons {
		d.stop()
	}
}

// cpuSeconds sums CPU time over the fleet and also returns it per daemon.
func (f *fleet) cpuSeconds() (total float64, per []float64, err error) {
	for _, d := range f.daemons {
		s, err := d.cpuSeconds()
		if err != nil {
			return 0, nil, fmt.Errorf("%s: %w", d.name, err)
		}
		per = append(per, s)
		total += s
	}
	return total, per, nil
}

// peakRSSMB sums the daemons' resident-set high-water marks.
func (f *fleet) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, d := range f.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		sum += mb
	}
	return sum, nil
}
