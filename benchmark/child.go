package main

import (
	"bytes"
	"encoding/json"
	"errors"
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

// buildDir is where the harness keeps everything it writes apart from the
// trace files: the lmserved binary, one directory per child (its durable
// data and TMPDIR) and the replay's scratch. It sits at the module root and
// is git-ignored.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the directory holding
// the lmerge go.mod, so the harness works from the root (go run ./benchmark)
// and from its own directory (go test).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module lmerge")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no lmerge go.mod above the working directory (run from a checkout)")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/lmserved from the checkout's sources into the
// build directory and returns the binary's path.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "lmserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lmserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/lmserved: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one lmserved serve process: the system under test.
type child struct {
	cmd      *exec.Cmd
	argv     []string
	addr     string
	httpAddr string
	dir      string        // everything this child writes; removed by stop
	done     chan struct{} // closed once the process has been reaped
}

// freeAddr reserves an ephemeral loopback port and releases it for the child
// to bind. The release-to-bind window is racy in principle; startChild
// retries on a lost race.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startChild launches a fresh server for w and returns once it accepts.
func startChild(root, bin string, w workload) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := tryStartChild(root, bin, w)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartChild(root, bin string, w workload) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	c := &child{addr: addr, httpAddr: httpAddr, done: make(chan struct{})}
	if c.dir, err = os.MkdirTemp(filepath.Join(root, buildDir), "child-"); err != nil {
		return nil, err
	}
	c.argv = append([]string{bin}, w.serveArgs(addr, httpAddr, filepath.Join(c.dir, "data"))...)
	c.cmd = exec.Command(bin, c.argv[1:]...)
	// The spill tier's os.MkdirTemp honours TMPDIR: keep every byte the
	// child writes inside the checkout, where stop removes it.
	c.cmd.Env = append(os.Environ(), "TMPDIR="+c.dir)
	var stderr bytes.Buffer
	c.cmd.Stderr = &stderr
	// A harness killed mid-run must not leave servers behind.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		c.cleanup()
		return nil, err
	}
	go func() {
		c.cmd.Wait()
		close(c.done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			conn.Close()
			return c, nil
		}
		select {
		case <-c.done:
			c.cleanup()
			return nil, fmt.Errorf("lmserved exited during start-up: %s", strings.TrimSpace(stderr.String()))
		default:
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("lmserved not accepting on %s after 10s: %v", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop ends the child — SIGINT for the clean path, SIGKILL if it lingers —
// waits until it has been reaped, and removes its directory.
func (c *child) stop() {
	c.cmd.Process.Signal(os.Interrupt)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
	c.cleanup()
}

func (c *child) cleanup() { os.RemoveAll(c.dir) }

// cpuSeconds returns the child's user+system CPU time so far: the scheduler's
// run time of every thread, which /proc/<pid>/task/<tid>/schedstat gives in
// nanoseconds. (/proc/<pid>/stat reports the same total in 10 ms ticks, 1–2%
// of a rep.) A thread that has exited takes its time with it; the Go runtime
// keeps its threads.
func (c *child) cpuSeconds() (float64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.cmd.Process.Pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no schedstat for child %d: %v", c.cmd.Process.Pid, err)
	}
	var ns int64
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		ran, _, _ := strings.Cut(string(data), " ")
		n, err := strconv.ParseInt(ran, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unparseable %s: %q", p, data)
		}
		ns += n
	}
	return float64(ns) / 1e9, nil
}

// rssPeakMiB returns the child's resident-set high-water mark.
func (c *child) rssPeakMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// serverCounters is the slice of the child's /metrics page the benchmark
// reports as server.* layer counts.
type serverCounters struct {
	Service struct {
		Backlog int64 `json:"subscriber_backlog"`
		Wire    struct {
			CreditStalls int64 `json:"credits_stalled"`
			Evictions    int64 `json:"evictions"`
		} `json:"wire"`
		Spill struct {
			RunsWritten int64 `json:"runs_written"`
			Readmits    int64 `json:"unspills"`
		} `json:"spill"`
	} `json:"service"`
}

func (c *child) counters() (serverCounters, error) {
	var sc serverCounters
	resp, err := http.Get("http://" + c.httpAddr + "/metrics")
	if err != nil {
		return sc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sc, fmt.Errorf("/metrics: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&sc)
	return sc, err
}

// selfCPUSeconds is the harness's own user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
