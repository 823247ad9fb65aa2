// Command perfbench is the repository benchmark. It drives the deployed
// shape — internal/ingest clients → dominolb → two dominod nodes with
// the write-ahead journal at -store-sync 1 — from one seeded,
// single-process load generator, runs the cmd/experiments paper batch,
// checks every output against an in-process reference, and prints each
// metric by name with its unit. With --trace 1 it also replays the
// workload's inputs in-process through each layer's public functions,
// spanning every call, and prints per-layer self times instead.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload fleet-short --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare base.json cand.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check prints
// correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/domino5g/domino/internal/core"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state: flags, paths, and what the workload
// measured so far.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	nproc    int
	binDir   string
	work     string // this run's state directory under the build directory
	analyzer *core.Analyzer

	e2e       map[string]metric // end-to-end metrics, measured untraced
	layers    map[string]metric // per-layer metrics, from the traced run
	attempted int
	failed    int
	problems  []string // output-check mismatches and failed operations, for the log
	notes     map[string]string
}

func (b *bench) setE2E(name, unit string, v float64)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name, unit string, v float64) { b.layers[name] = metric{v, unit} }

// fail counts one failed operation or output-check mismatch.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one traffic mix the benchmark can run. batch marks the
// research batch path; the others drive the served path.
type workload struct {
	run   func(*bench) error
	batch bool
}

var workloads = map[string]workload{
	"fleet-short": {func(b *bench) error { return runFleet(b, fleetShort) }, false},
	"fleet-long":  {func(b *bench) error { return runFleet(b, fleetLong) }, false},
	"query-mix":   {runQueryMix, false},
	"paper-batch": {runPaperBatch, true},
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: fleet-short, fleet-long, query-mix or paper-batch")
	seed := flag.Int64("seed", 1, "input generator seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	compare := flag.Bool("compare", false, "compare two saved results (args: base.json cand.json)")
	buildDir := flag.String("build-dir", ".bench_build", "directory holding bin/ and receiving run state")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs base.json cand.json")
			return 2
		}
		if err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 3
		}
		return 0
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	a, err := newAnalyzer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *traced == 1,
		nproc:    runtime.NumCPU(),
		binDir:   filepath.Join(*buildDir, "bin"),
		work:     filepath.Join(*buildDir, "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		analyzer: a,
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
		notes:    map[string]string{},
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	env := probeEnv(b.work)
	if err := wl.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		fmt.Fprintf(os.Stderr, "perfbench: run state kept in %s\n", b.work)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}

	want, got := endToEndMetrics, b.e2e
	if b.trace {
		want, got = layerMetrics, b.layers
		// Layers off this workload's path did no work in it.
		var idle []string
		for _, m := range layerMetrics {
			if m.batch != wl.batch {
				b.setLayer(m.name, m.unit, 0)
				idle = append(idle, m.name)
			}
		}
		b.notes["layers_not_on_path"] = strings.Join(idle, " ")
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", b.workload, m.name)
			return 1
		}
		if v.Unit != m.unit {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured in %s, declared %s\n", m.name, v.Unit, m.unit)
			return 1
		}
		res.Metrics[m.name] = v
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	printTable(b)
	saved := savedResult{Workload: b.workload, Seed: b.seed, Trace: b.trace, Env: env, Result: res, Notes: b.notes}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	if blob, err := json.MarshalIndent(saved, "", "  "); err == nil {
		path := filepath.Join(filepath.Dir(b.work), fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, *traced))
		if err := os.WriteFile(path, blob, 0o644); err == nil {
			fmt.Printf("saved %s\n", path)
		}
	}
	// Per-run state (journals, checkpoints, logs) is large; keep only
	// the saved result and spans, and the state of a failed run.
	if res.Correct {
		os.RemoveAll(b.work)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTable prints every metric this run measured, end-to-end and
// per-layer, one per line with its unit, then the run's notes.
func printTable(b *bench) {
	for _, group := range []struct {
		title string
		m     map[string]metric
	}{{"end-to-end", b.e2e}, {"per-layer", b.layers}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-10s %-40s %16.6f %s\n", group.title, n, group.m[n].Value, group.m[n].Unit)
		}
	}
	keys := make([]string, 0, len(b.notes))
	for k := range b.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("note       %-40s %s\n", k, b.notes[k])
	}
	fmt.Printf("ops        attempted=%d failed=%d\n", b.attempted, b.failed)
}

func workloadNames() []string {
	out := make([]string, 0, len(workloads))
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
