package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// envBlock records what a result was measured on. Results whose blocks
// differ are not comparable: fsync cost alone depends on the filesystem
// that holds the journals.
type envBlock struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	JournalFS  string `json:"journal_fs"`
}

func probeEnv(journalDir string) envBlock {
	e := envBlock{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		JournalFS:  "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	e.JournalFS = mountFS(journalDir)
	return e
}

// mountFS names the filesystem type of the mount holding dir: the
// longest /proc/mounts mount point that prefixes it.
func mountFS(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if real, err := filepath.EvalSymlinks(abs); err == nil {
		abs = real
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fsType := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || mp == "/" || strings.HasPrefix(abs, mp+"/")) && len(mp) > best {
			best, fsType = len(mp), fields[2]
		}
	}
	return fsType
}

// savedResult is what a run writes beside its printed result so two
// runs can be compared later.
type savedResult struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Env      envBlock          `json:"env"`
	Result   result            `json:"result"`
	Notes    map[string]string `json:"notes,omitempty"`
}

// compareResults prints each metric of two saved results side by side.
// It refuses, with an error, to compare results measured on different
// environments or workloads.
func compareResults(w io.Writer, basePath, candPath string) error {
	var base, cand savedResult
	for _, x := range []struct {
		path string
		dst  *savedResult
	}{{basePath, &base}, {candPath, &cand}} {
		b, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, x.dst); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if base.Env != cand.Env {
		return fmt.Errorf("environments differ, results are not comparable:\n  base %+v\n  cand %+v", base.Env, cand.Env)
	}
	if base.Workload != cand.Workload || base.Trace != cand.Trace {
		return fmt.Errorf("different runs: %s/trace=%v vs %s/trace=%v",
			base.Workload, base.Trace, cand.Workload, cand.Trace)
	}
	names := make([]string, 0, len(base.Result.Metrics))
	for name := range base.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Result.Metrics[name]
		c, ok := cand.Result.Metrics[name]
		if !ok {
			fmt.Fprintf(w, "%-36s %14.4f %-8s missing in candidate\n", name, b.Value, b.Unit)
			continue
		}
		delta := "n/a"
		if b.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (c.Value/b.Value-1)*100)
		}
		fmt.Fprintf(w, "%-36s %14.4f %14.4f %-8s %s\n", name, b.Value, c.Value, b.Unit, delta)
	}
	return nil
}
