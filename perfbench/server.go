package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/skyline"
)

// child is a cmd/skyline server running as a child process, so that
// its set-up time, memory and CPU belong to it alone.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// freeAddr returns a loopback address that was free a moment ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startChild runs bin with args plus a loopback -addr and waits until
// /healthz answers.
func startChild(c *http.Client, bin string, args []string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ch := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		ch.err = cmd.Wait()
		close(ch.done)
	}()
	if err := ch.waitReady(c, 30*time.Second); err != nil {
		ch.stop()
		return nil, err
	}
	return ch, nil
}

// waitReady polls /healthz until it answers 200.
func (ch *child) waitReady(c *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-ch.done:
			return fmt.Errorf("server exited before it was ready: %v", ch.err)
		default:
		}
		if resp, err := c.Get(ch.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("server not ready in time")
}

// stop kills the server and waits until it has exited.
func (ch *child) stop() {
	_ = ch.cmd.Process.Kill() // fails only if it has already exited
	<-ch.done
}

// procCPU is a process's user plus system CPU time so far, from
// /proc/<pid>/stat (in USER_HZ ticks of 10 ms).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold
	// spaces; utime and stime are the 14th and 15th fields overall.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// hostTicks reads the machine-wide CPU counters from /proc/stat: all
// ticks, and the ticks stolen by the hypervisor for other guests.
func hostTicks() (total, steal int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat layout")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// peakRSS is the server's VmHWM in MiB.
func (ch *child) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", ch.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// healthz fetches the server's /healthz gauges.
func healthz(c *http.Client, base string) (skyline.HealthJSON, error) {
	var h skyline.HealthJSON
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// scrapeMetrics fetches /metrics as a map from series (name plus
// labels, exactly as exposed) to value.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed /metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed /metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
