package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// proc is one server process the benchmark started.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

// fleet is the deployed shape: two dominod nodes, each journaling at
// its default -store-sync 1, behind one dominolb.
type fleet struct {
	nodes []*proc
	lb    *proc
	all   []*proc
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = orphanKill()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// orphanKill makes the kernel kill a child if the benchmark dies
// before it could stop the child itself.
func orphanKill() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// usage is what a process consumed over its life.
type usage struct {
	rssMiB float64       // peak resident set (VmHWM)
	cpu    time.Duration // user + system CPU time
}

func usageOf(ps *os.ProcessState) usage {
	u := usage{cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		u.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

// kill stops the process and waits for it; the benchmark discards all
// server state, so there is nothing for a graceful drain to save.
func (p *proc) kill() usage {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGKILL)
		<-p.done
	}
	p.log.Close()
	return usageOf(p.cmd.ProcessState)
}

// exitedEarly reports a process that died before it was stopped.
func (p *proc) exitedEarly() error {
	select {
	case <-p.done:
		return fmt.Errorf("%s exited early: %v (see %s)", p.name, p.err, p.log.Name())
	default:
		return nil
	}
}

// fleetConfig is how one fleet is launched.
type fleetConfig struct {
	binDir string
	dir    string   // state directory: node k's journal and checkpoint in nodeDir(dir, k), logs
	node   []string // extra dominod flags
}

// nodeDir is node k's state directory under dir.
func nodeDir(dir string, k int) string { return filepath.Join(dir, fmt.Sprintf("n%d", k+1)) }

// startFleet launches the nodes one after another, each once the one
// before is healthy, then launches dominolb and waits until its
// /healthz reports every backend up. The returned duration runs from
// the first process launch to that moment, so it includes each node's
// checkpoint and journal recovery.
func startFleet(cfg fleetConfig) (*fleet, time.Duration, error) {
	f := &fleet{}
	var urls []string
	var nodeDirs []string
	for k := 0; k < 2; k++ {
		dir := nodeDir(cfg.dir, k)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		nodeDirs = append(nodeDirs, dir)
	}
	start := time.Now()
	for k, nodeDir := range nodeDirs {
		addr, err := freeAddr()
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		args := append([]string{
			"-addr", addr,
			"-node-id", fmt.Sprintf("n%d", k+1),
			"-store-journal", filepath.Join(nodeDir, "journal.wal"),
		}, cfg.node...)
		p, err := startProc(fmt.Sprintf("dominod-n%d", k+1), filepath.Join(cfg.binDir, "dominod"),
			filepath.Join(nodeDir, "dominod.log"), args...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		p.url = "http://" + addr
		f.nodes = append(f.nodes, p)
		f.all = append(f.all, p)
		urls = append(urls, p.url)
		// One node at a time: in a deployment each recovers on its own
		// host, and two recoveries contending for a small box's cores
		// would time the contention.
		if err := waitHealthy(p, func(int, []byte) bool { return true }); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	addr, err := freeAddr()
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	lb, err := startProc("dominolb", filepath.Join(cfg.binDir, "dominolb"),
		filepath.Join(cfg.dir, "dominolb.log"),
		"-addr", addr, "-backend", strings.Join(urls, ","))
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	lb.url = "http://" + addr
	f.lb = lb
	f.all = append(f.all, lb)
	allUp := func(_ int, body []byte) bool {
		var h struct {
			Up       int `json:"up"`
			Backends []struct {
				State string `json:"state"`
			} `json:"backends"`
		}
		return json.Unmarshal(body, &h) == nil && h.Up == len(urls) && len(h.Backends) == len(urls)
	}
	if err := waitHealthy(lb, allUp); err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// waitHealthy polls /healthz until it answers 200 and ok accepts the
// body, or the process dies, or 60 s pass.
func waitHealthy(p *proc, ok func(int, []byte) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if err := p.exitedEarly(); err != nil {
			return err
		}
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(resp.StatusCode, body) {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("%s not healthy after 60s (see %s)", p.name, p.log.Name())
}

// stop kills every process and returns each one's usage by name. Safe
// on a partly started fleet, and again on a stopped one.
func (f *fleet) stop() map[string]usage {
	out := map[string]usage{}
	for _, p := range f.all {
		out[p.name] = p.kill()
	}
	f.all = nil
	return out
}

// alive reports the first process that died under load.
func (f *fleet) alive() error {
	for _, p := range f.all {
		if err := p.exitedEarly(); err != nil {
			return err
		}
	}
	return nil
}

// scrapeCounter sums every sample of a Prometheus counter family in a
// node's /metrics exposition.
func scrapeCounter(ctx context.Context, client *http.Client, url, family string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer family name sharing the prefix
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total, sc.Err()
}
