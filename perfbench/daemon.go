package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ftrouting/serve/api"
)

// daemon is one `ftroute serve` process.
type daemon struct {
	cmd  *exec.Cmd
	args []string
	base string // http://ADDR
	done chan struct{}
}

// daemonArgs are the serve flags: the defaults, with the access log off
// and, for manifest workloads, the shard budget.
func daemonArgs(in string, shardBudget int64) []string {
	args := []string{"serve", "-in", in, "-addr", "127.0.0.1:0", "-log-level", "off"}
	if shardBudget > 0 {
		args = append(args, "-shard-budget", strconv.FormatInt(shardBudget, 10))
	}
	return args
}

// startDaemon launches the daemon and returns once /v1/healthz answers.
func startDaemon(bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, args: args, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, out)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.stop()
		return nil, errors.New("daemon exited before listening")
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not listen within 60s")
	}
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon healthz never answered: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills after a grace
// period. It returns the daemon's exit error, if any.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.done
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		return <-exited
	}
}

func (d *daemon) stats(ctx context.Context) (*api.StatsResponse, error) {
	return api.New(d.base).Stats(ctx)
}

// procSample is the daemon's CPU time and peak RSS.
type procSample struct {
	cpu    time.Duration
	hwmKiB int64
}

func (d *daemon) sample() (procSample, error) {
	return readProc(d.cmd.Process.Pid)
}

// readProc reads utime+stime from /proc/PID/stat and VmHWM from
// /proc/PID/status.
func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	s.cpu = time.Duration(ut+st) * time.Second / ticksPerSecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fs := strings.Fields(v)
			if len(fs) > 0 {
				s.hwmKiB, _ = strconv.ParseInt(fs[0], 10, 64)
			}
		}
	}
	if s.hwmKiB == 0 {
		return s, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
	}
	return s, nil
}

// cpuTicks is the machine's busy and stolen CPU time in clock ticks,
// from the first line of /proc/stat.
type cpuTicks struct{ busy, steal int64 }

func readCPU() (cpuTicks, error) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// since is the CPU time that passed between a and b.
func (b cpuTicks) since(a cpuTicks) cpuTicks {
	return cpuTicks{busy: b.busy - a.busy, steal: b.steal - a.steal}
}

func (t cpuTicks) add(o cpuTicks) cpuTicks {
	return cpuTicks{busy: t.busy + o.busy, steal: t.steal + o.steal}
}

// stealShare is the share of the CPU time the machine wanted that the
// hypervisor stole.
func (t cpuTicks) stealShare() float64 {
	if t.steal+t.busy <= 0 {
		return 0
	}
	return float64(t.steal) / float64(t.steal+t.busy)
}
