package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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

// janitor owns everything a run leaves outside its own memory: child
// processes and scratch directories. sweep is called on every way out
// of main, including SIGINT and a panic.
type janitor struct {
	mu    sync.Mutex
	swept bool // nothing may be started or created any more
	procs map[*exec.Cmd]bool
	dirs  []string
}

var errSwept = fmt.Errorf("benchmark is shutting down")

func (j *janitor) sweep() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for cmd := range j.procs {
		_ = cmd.Process.Kill() // already gone is fine
	}
	for _, d := range j.dirs {
		_ = os.RemoveAll(d) // best effort on the way out
	}
	j.swept = true
}

func (j *janitor) tempDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.swept {
		return "", errSwept
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return "", err
	}
	j.dirs = append(j.dirs, dir)
	return dir, nil
}

// buildServer compiles cmd/isqld from the checkout's source.
func buildServer(root, out string) (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", out, "./cmd/isqld")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("building isqld: %w\n%s", err, msg)
	}
	return time.Since(start), nil
}

// server is one running isqld process.
type server struct {
	jan    *janitor
	cmd    *exec.Cmd
	url    string
	http   *http.Client
	exited chan struct{} // closed once the process has been waited for
	// stderr: span lines of a traced server are kept raw while recording
	// is on and parsed after the window, so that parsing does not compete
	// with the server for the CPU; everything else is the server's log.
	mu        sync.Mutex
	recording bool
	spans     [][]byte
	log       bytes.Buffer
}

// serverConfig is the part of isqld's command line the harness varies.
type serverConfig struct {
	bin, seedFile, walDir string
	shards, poolPages     int
	traced                bool
}

// startServer execs isqld on a free loopback port and returns without
// waiting for it to listen; waitHealthy does that.
func startServer(jan *janitor, c serverConfig) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr, "-load", c.seedFile, "-wal", c.walDir, "-shards", strconv.Itoa(c.shards)}
	if c.poolPages > 0 {
		args = append(args, "-pool-pages", strconv.Itoa(c.poolPages))
	}
	if c.traced {
		args = append(args, "-slow-query", "1ns")
	}
	cmd := exec.Command(c.bin, args...)
	// The kernel kills the child should the harness die without sweeping.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{jan: jan, cmd: cmd, url: "http://" + addr, exited: make(chan struct{}),
		http: &http.Client{Timeout: 30 * time.Second}}
	jan.mu.Lock()
	if jan.swept {
		jan.mu.Unlock()
		return nil, errSwept
	}
	if err := cmd.Start(); err != nil {
		jan.mu.Unlock()
		return nil, err
	}
	jan.procs[cmd] = true
	jan.mu.Unlock()
	go func() {
		s.readStderr(stderr)
		_ = cmd.Wait() // a killed child's status is not an error here
		close(s.exited)
	}()
	return s, nil
}

func (s *server) readStderr(r io.Reader) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			s.mu.Lock()
			switch {
			case line[0] != '{':
				s.log.Write(line)
			case s.recording:
				s.spans = append(s.spans, line)
			}
			s.mu.Unlock()
		}
		if err != nil {
			return
		}
	}
}

// record switches span keeping on or off.
func (s *server) record(on bool) {
	s.mu.Lock()
	s.recording = on
	s.mu.Unlock()
}

// takeSpans hands over the span lines kept so far.
func (s *server) takeSpans() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := s.spans
	s.spans = nil
	return lines
}

// kill sends SIGKILL and waits until the process has ended.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
	s.jan.mu.Lock()
	delete(s.jan.procs, s.cmd)
	s.jan.mu.Unlock()
	s.http.CloseIdleConnections()
}

// waitHealthy polls /healthz until it answers status ok.
func (s *server) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("isqld exited during start-up:\n%s", s.logText())
		default:
		}
		if body, err := s.get("/healthz"); err == nil && strings.Contains(body, `"status":"ok"`) {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("isqld not healthy after 30s:\n%s", s.logText())
}

func (s *server) logText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.String()
}

func (s *server) get(path string) (string, error) {
	resp, err := s.http.Get(s.url + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(body), nil
}

// post sends one request on the given client and returns status and body.
func post(hc *http.Client, url string, r request) (int, string, error) {
	resp, err := hc.Post(url+"/"+r.endpoint, "text/plain", strings.NewReader(r.body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

// scrape reads /metrics into series → value.
func (s *server) scrape() (promSample, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(body), nil
}

// procUsage reads the server's consumed CPU time and peak resident set
// from /proc. CPU time is in clock ticks, 100 per second on Linux.
func (s *server) procUsage() (cpu time.Duration, rssPeakMB float64, err error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, so the 12th and 13th after it.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, _ := strconv.ParseInt(rest[11], 10, 64)
	stime, _ := strconv.ParseInt(rest[12], 10, 64)
	cpu = time.Duration(utime+stime) * (time.Second / 100)
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			rssPeakMB = kb / 1024
		}
	}
	return cpu, rssPeakMB, nil
}

// dirBytes sums the sizes of the regular files directly in dir whose
// name starts with prefix.
func dirBytes(dir, prefix string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
