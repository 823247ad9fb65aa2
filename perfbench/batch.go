package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/domino5g/domino/internal/sim"
)

// The paper batch runs at a fixed call length and seed, the artifacts a
// researcher regenerates: its work is the same on every run, so runs
// differ only by how fast the code does it. --seed drives only the
// traced run's generated sessions.
const (
	batchDuration = 30
	batchSeed     = 1
)

// batchRun is one cmd/experiments process.
type batchRun struct {
	stdout    []byte
	artifacts map[string]float64 // artifact ID → its own wall seconds
	wall      time.Duration
	rssMiB    float64
}

func runExperiments(b *bench, workers int) (batchRun, error) {
	cmd := exec.Command(filepath.Join(b.binDir, "experiments"),
		"-duration", fmt.Sprint(batchDuration), "-seed", fmt.Sprint(batchSeed), "-workers", fmt.Sprint(workers))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	cmd.SysProcAttr = orphanKill()
	t0 := time.Now()
	err := cmd.Run()
	r := batchRun{stdout: out.Bytes(), wall: time.Since(t0), artifacts: map[string]float64{}}
	if err != nil {
		return r, fmt.Errorf("experiments -workers %d: %v: %s", workers, err, errb.String())
	}
	r.rssMiB = usageOf(cmd.ProcessState).rssMiB
	// Per-artifact lines on stderr read "<id> <seconds>s"; the final
	// "wall" line is the whole batch.
	sc := bufio.NewScanner(&errb)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || fields[0] == "wall" {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "s"), 64); err == nil {
			r.artifacts[fields[0]] = v
		}
	}
	return r, nil
}

// batchSetupRuns is how many -workers 1 reference runs set-up makes;
// setup_s is their median wall.
const batchSetupRuns = 3

// runPaperBatch regenerates every cmd/experiments artifact at a fixed
// seed and call length. Set-up is the -workers 1 reference runs, whose
// stdout every later run must equal byte for byte, plus one untimed
// run with nproc workers that checks the parallel fan-out against them
// and yields its efficiency. The timed batches then repeat the default
// sequential path for the run's seconds: on a 2-vCPU host whose speed
// drifts with its neighbours' load, a batch that keeps both vCPUs busy
// varied twice as much as a sequential one in the same minute (wall
// 1.37–1.89 s against 2.68–3.12 s).
func runPaperBatch(b *bench) error {
	ref, err := runExperiments(b, 1)
	if err != nil {
		return err
	}
	nArtifacts := len(ref.artifacts)
	if nArtifacts == 0 {
		return fmt.Errorf("reference run reported no artifacts")
	}
	check := func(r batchRun, what string) {
		b.attempted += nArtifacts
		if !bytes.Equal(r.stdout, ref.stdout) {
			b.fail("%s: stdout differs from the -workers 1 reference", what)
		}
		if len(r.artifacts) != nArtifacts {
			b.fail("%s: %d artifacts, reference has %d", what, len(r.artifacts), nArtifacts)
		}
	}
	setups := []float64{ref.wall.Seconds()}
	for i := 1; i < batchSetupRuns; i++ {
		r, err := runExperiments(b, 1)
		if err != nil {
			return err
		}
		check(r, fmt.Sprintf("reference run %d", i+1))
		setups = append(setups, r.wall.Seconds())
	}
	b.setE2E("setup_s", "s", median(setups))
	b.notes["setup_s"] = fmt.Sprintf("%.3f", setups)
	par, err := runExperiments(b, b.nproc)
	if err != nil {
		return err
	}
	check(par, fmt.Sprintf("-workers %d run", b.nproc))
	sum := 0.0
	for _, v := range par.artifacts {
		sum += v
	}
	b.setLayer("experiments.parallel_efficiency", "ratio", sum/(float64(b.nproc)*par.wall.Seconds()))

	var (
		walls   []float64
		rss     []float64
		slowest []float64
		timed   float64 // summed wall of the timed batches, s
	)
	cal := newCalibrator(b.nproc)
	cal.mark()
	began := time.Now()
	for len(walls) < 3 || time.Since(began) < b.seconds {
		r, err := runExperiments(b, 1)
		if err != nil {
			return err
		}
		cal.mark()
		check(r, fmt.Sprintf("run %d", len(walls)+1))
		slow := 0.0
		for _, v := range r.artifacts {
			slow = max(slow, v)
		}
		walls = append(walls, r.wall.Seconds())
		timed += r.wall.Seconds()
		rss = append(rss, r.rssMiB)
		slowest = append(slowest, slow)
	}
	// One operation is a whole batch. A run holds too few batches for
	// any percentile to have ten beyond it, so the tail is each window's
	// slowest batch (the ladder's last resort), median over three
	// windows of three or more. Per-artifact percentiles were tried and
	// rejected: they jump between artifacts of very different cost,
	// which spread their p50 to 0.35 of its median over ten seeds.
	// Times are in reference seconds (calib.go).
	refWalls := make([]float64, len(walls))
	refTimed := 0.0
	for i, w := range walls {
		refWalls[i] = w / cal.around(i)
		refTimed += refWalls[i]
	}
	refWall, refTail, _ := windowed(append([]float64(nil), refWalls...), 0.9, 3, 3)
	b.setE2E("latency_p50_ref_ms", "ref_ms", refWall*1000)
	b.setE2E("latency_tail_ref_ms", "ref_ms", refTail*1000)
	// Artifacts per reference second over every timed batch: a mean, so
	// unlike the windowed median it also moves with the slow batches.
	b.setE2E("throughput_per_ref_s", "1/ref_s", float64(nArtifacts*len(walls))/refTimed)
	batchWall, tailS, _ := windowed(append([]float64(nil), walls...), 0.9, 3, 3)
	b.setE2E("peak_rss_mb", "MiB", median(rss))
	b.notes["batch"] = fmt.Sprintf("%d sequential runs of %d artifacts, median wall %.3fs, slowest-batch tail %.3fs, %.3f artifacts/s; reference %.3fs; -workers %d %.3fs",
		len(walls), nArtifacts, batchWall, tailS, float64(nArtifacts*len(walls))/timed, ref.wall.Seconds(), b.nproc, par.wall.Seconds())
	b.notes["batch_walls_s"] = fmt.Sprintf("%.3f", walls)
	b.notes["ref_second_s"] = fmt.Sprintf("%.3f", cal.points)
	b.notes["host"] = cal.hostNote()
	b.setLayer("experiments.slowest_artifact_s", "s", median(slowest))

	if b.trace {
		// The batch's own simulator and analyzer layers, alone: the 14
		// catalog scenarios at the batch's call length.
		_, gst, err := genPool(b.seed, 14, batchDuration*sim.Second, b.analyzer)
		if err != nil {
			return err
		}
		b.setLayer("sim.ns_per_record", "ns", float64(gst.SimNanos)/float64(max(gst.SimRecords, 1)))
		b.setLayer("core.analyze_ms_per_session", "ms", float64(gst.AnalyzeNanos)/1e6/float64(max(gst.Sessions, 1)))
	}
	return nil
}
