package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is a child process that prints "<name>: listening on <addr>"
// on stdout once its listener is bound.
type server struct {
	cmd   *exec.Cmd
	addr  string
	start time.Time
	ready time.Duration // launch until the readiness probe answered 200
	done  chan struct{} // closed once stdout reaches EOF
}

// startServer launches bin with args, waits for its listening line and
// then polls probe until it answers 200. Standard error (predserve's
// default access log among it) goes to logPath, never to a pipe this
// process would have to drain.
func startServer(bin, logPath, probe string, args ...string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := command(bin, args...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, start: time.Now(), done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addrCh <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case s.addr = <-addrCh:
	case <-s.done:
		s.stop()
		return nil, fmt.Errorf("%s exited before listening (log: %s)", bin, logPath)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not listen within 30s", bin)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.url(probe))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("%s%s never answered 200", s.addr, probe)
		}
		time.Sleep(250 * time.Microsecond)
	}
	s.ready = time.Since(s.start)
	return s, nil
}

func (s *server) url(path string) string { return "http://" + s.addr + path }

// stop reads the process's peak resident set (MiB), then sends SIGTERM
// and waits for the drain (SIGKILL after 15s). It returns the peak RSS
// and the CPU time (user plus system, s) the process used in its life.
func (s *server) stop() (rssMiB, cpu float64) {
	rss := peakRSSMiB(s.cmd.Process.Pid)
	s.cmd.Process.Signal(syscall.SIGTERM)
	waited := make(chan struct{})
	go func() {
		s.cmd.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-waited
	}
	<-s.done
	return rss, cpuSeconds(s.cmd.ProcessState)
}

// cpuSeconds is the user plus system CPU time of an exited child. The
// kernel accounts it without steal time (the time the host ran other
// tenants on this machine's virtual CPUs) and without time spent waiting
// for a CPU, so it measures the work done, not how busy the host was.
func cpuSeconds(ps *os.ProcessState) float64 {
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}

// peakRSSMiB reads a live child's peak resident set (VmHWM) from /proc,
// in MiB; 0 if the process has exited. The rusage of an exited child
// cannot stand in for it: os/exec starts a child with vfork and exec,
// which hands the child this process's own high-water mark, so its
// ru_maxrss reports the benchmark's memory whenever that is larger.
func peakRSSMiB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64)
			return kib / 1024
		}
	}
	return 0
}

// watchPeakRSS samples a child's VmHWM every 10ms until the returned
// function is called, which returns the last sample. Call it before the
// child is reaped, while its pid cannot name another process.
func watchPeakRSS(pid int) func() float64 {
	var last float64
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if v := peakRSSMiB(pid); v > 0 {
				last = v
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return last
	}
}

// command is exec.Command for a child that the kernel kills if the
// benchmark dies first, so an interrupted run leaves no servers behind.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
