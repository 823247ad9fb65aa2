package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// fleetSpec shapes a session workload: call length, how many distinct
// generated calls the sessions cycle through, the open-loop arrival
// rate (about half of what the fleet sustains closed-loop on the
// reference 2-core box) and the fixed tail quantile.
type fleetSpec struct {
	callSeconds int
	pool        int
	rate        float64 // open-loop sessions per second
	tailQ       float64
}

var (
	fleetShort = fleetSpec{callSeconds: 6, pool: 64, rate: 70, tailQ: 0.95}
	fleetLong  = fleetSpec{callSeconds: 60, pool: 14, rate: 10, tailQ: 0.9}
)

// closedSegments is how many pieces the capacity phase is cut into;
// latencyWindows is the most windows the open-loop latencies are cut
// into (each keeps at least 300 sessions, so p95 has 15 beyond).
const (
	closedSegments = 4
	latencyWindows = 6
)

// warmupSeconds is how long the untimed open loop before the timed one
// runs.
const warmupSeconds = 2

// setupLaunches is how many timed launches a run makes; setup_s is
// their median, and the last launch serves the measured phases.
const setupLaunches = 9

// Every fleet-short node starts from a generated history, as a node
// that has served earlier traffic does: a checkpoint of
// histCheckpointRows rows plus a journal tail of histJournalRows more,
// fewer than dominod's default -checkpoint-every (1024), so the tail is
// not folded in yet. Set-up then includes rcastore.Recover of both, as
// a production restart does, and inserts land in a store of that size.
const (
	histCheckpointRows = 8000
	histJournalRows    = 1000
	histClock          = sim.Time(1_767_225_600_000_000) // end of the history (µs); query-mix's fixed clock
	histRowGap         = 30 * sim.Second
)

// history is one node's generated state: the bytes of its checkpoint
// and of its journal (nil: no journal).
type history struct {
	ckpt, journal []byte
}

// buildHistory generates node k's history: ckptRows+journalRows rows
// cycling through the pool's reports under distinct session IDs,
// spaced histRowGap apart up to histClock. The first ckptRows form the
// checkpoint; the rest are appended to a journal written under dir.
func buildHistory(dir string, k int, pool []payload, ckptRows, journalRows int) (history, error) {
	st := rcastore.New(rcastore.Options{MaxBlocks: 4096})
	total := ckptRows + journalRows
	first := histClock - histRowGap*sim.Time(total)
	row := func(j int) rcastore.Record {
		p := pool[(j*7+k*3)%len(pool)]
		start := first + sim.Time(j)*histRowGap - p.Report.Duration
		return rcastore.FromReport(fmt.Sprintf("h%d-%06d", k+1, j), start, p.Report)
	}
	for j := 0; j < ckptRows; j++ {
		st.Insert(row(j))
	}
	var h history
	var buf bytes.Buffer
	if err := st.Spill(&buf); err != nil {
		return h, err
	}
	h.ckpt = buf.Bytes()
	if journalRows == 0 {
		return h, nil
	}
	path := filepath.Join(dir, fmt.Sprintf("history-n%d.wal", k+1))
	j, err := rcastore.OpenJournal(path, rcastore.JournalOptions{SyncEvery: journalRows})
	if err != nil {
		return h, err
	}
	for i := ckptRows; i < total; i++ {
		if err := j.Append(row(i)); err != nil {
			j.Close()
			return h, err
		}
	}
	if err := j.Close(); err != nil {
		return h, err
	}
	h.journal, err = os.ReadFile(path)
	return h, err
}

// install writes the history where dominod -store-journal journal
// looks for it: the journal, and its checkpoint at journal + ".ckpt".
func (h history) install(journal string) error {
	if err := os.WriteFile(journal+".ckpt", h.ckpt, 0o644); err != nil {
		return err
	}
	if h.journal == nil {
		return nil
	}
	return os.WriteFile(journal, h.journal, 0o644)
}

// histSeed seeds the history's calls. The history is the state a node
// restarts with, not the run's traffic, so it is the same for every
// --seed: row sizes vary several-fold between generated calls, and
// with a per-seed history a node's journal ranged 612–826 KB across
// seeds, which moved setup_s with the seed rather than with the code.
const histSeed = 1

// buildHistories generates one history per node from 64 fleet-short
// calls.
func buildHistories(b *bench, ckptRows, journalRows int) ([2]history, error) {
	var hs [2]history
	pool, _, err := genPool(histSeed, 64, 6*sim.Second, b.analyzer)
	if err != nil {
		return hs, err
	}
	for k := range hs {
		if hs[k], err = buildHistory(b.work, k, pool, ckptRows, journalRows); err != nil {
			return hs, err
		}
	}
	return hs, nil
}

// launchFleet installs each node's history in its state directory and
// launches the fleet on that state once untimed, to warm the page cache
// for the binaries and the state files, then setupLaunches times more,
// stopping all but the last. A stopped launch served nothing, so each
// launch restarts the same nodes on the same checkpoint and journal.
// setup_s is the median launch-to-ready time.
func launchFleet(b *bench, hs [2]history, nodeFlags ...string) (*fleet, error) {
	cfg := fleetConfig{binDir: b.binDir, dir: filepath.Join(b.work, "fleet"), node: nodeFlags}
	for k, h := range hs {
		dir := nodeDir(cfg.dir, k)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := h.install(filepath.Join(dir, "journal.wal")); err != nil {
			return nil, err
		}
	}
	var setups []float64
	var f *fleet
	runtime.GC() // collect input generation's garbage before timing
	for i := -1; i < setupLaunches; i++ {
		if f != nil {
			f.stop()
		}
		var d time.Duration
		var err error
		f, d, err = startFleet(cfg)
		if err != nil {
			return nil, err
		}
		if i >= 0 {
			setups = append(setups, d.Seconds())
			b.notes["setup_ms"] += fmt.Sprintf(" %.1f", d.Seconds()*1e3)
		}
	}
	b.setE2E("setup_s", "s", median(setups))
	return f, nil
}

// newClient is the generator's HTTP client: at most conns connections
// to any one host, kept alive.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// uploader runs session uploads through internal/ingest, one client per
// connection slot so each slot's retry jitter is seeded, and tallies
// what the uploads took.
type uploader struct {
	clients []*ingest.Client
	pool    []payload
	idOf    func(i int) string

	mu       sync.Mutex
	attempts int
	shed     int
	sessions int
}

func newUploader(b *bench, hc *http.Client, base string, slots int, pool []payload, prefix string) *uploader {
	u := &uploader{pool: pool, idOf: func(i int) string { return fmt.Sprintf("%s%d-%06d", prefix, b.seed, i) }}
	for w := 0; w < slots; w++ {
		u.clients = append(u.clients, ingest.New(ingest.Options{
			BaseURL: base, HTTPClient: hc, Retries: 3, Seed: b.seed*1000 + int64(w),
		}))
	}
	return u
}

func (u *uploader) op(ctx context.Context, w, i int) (int, error) {
	p := u.pool[i%len(u.pool)]
	st, err := u.clients[w].Upload(ctx, u.idOf(i), ingest.ContentTypeBinary, p.Body)
	u.mu.Lock()
	u.attempts += st.Attempts
	u.shed += st.ShedRetries
	u.sessions++
	u.mu.Unlock()
	return p.Records, err
}

// countFailures charges every failed sample to the run.
func countFailures(b *bench, what string, samples []sample) {
	b.attempted += len(samples)
	for _, s := range samples {
		if s.Err != nil {
			b.fail("%s %d: %v", what, s.Index, s.Err)
		}
	}
}

// checkRows asserts that every successfully uploaded session's stored
// row, read back through dominolb, equals rcastore.FromReport of the
// batch analyzer's report on the same trace.
func checkRows(ctx context.Context, b *bench, hc *http.Client, lbURL string, u *uploader, samples []sample) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	work := make(chan sample)
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				id := u.idOf(s.Index)
				msg := checkRow(ctx, hc, lbURL, id, u.pool[s.Index%len(u.pool)])
				if msg != "" {
					mu.Lock()
					b.fail("%s", msg)
					mu.Unlock()
				}
			}
		}()
	}
	for _, s := range samples {
		if s.Err == nil {
			work <- s
		}
	}
	close(work)
	wg.Wait()
}

func checkRow(ctx context.Context, hc *http.Client, lbURL, id string, p payload) string {
	body, err := httpGet(ctx, hc, lbURL, "/query?session="+id)
	if err != nil {
		return fmt.Sprintf("reading row %s: %v", id, err)
	}
	var resp struct {
		Records []rcastore.Record `json:"records"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("row %s: %v", id, err)
	}
	if len(resp.Records) != 1 {
		return fmt.Sprintf("session %s: %d stored rows, want 1", id, len(resp.Records))
	}
	got := resp.Records[0]
	want, _ := canonicalJSON(rcastore.FromReport(id, got.Start, p.Report))
	have, _ := canonicalJSON(got)
	if string(want) != string(have) {
		return fmt.Sprintf("session %s (%s): stored row differs from batch analysis:\n  got  %s\n  want %s", id, p.Scenario, have, want)
	}
	return ""
}

// runFleet is fleet-short and fleet-long: an open-loop phase at the
// spec's fixed rate, then a closed-loop capacity phase with nproc
// uploaders, both through dominolb; then every stored row is checked.
func runFleet(b *bench, spec fleetSpec) error {
	ctx := context.Background()
	pool, _, err := genPool(b.seed, spec.pool, sim.Time(spec.callSeconds)*sim.Second, b.analyzer)
	if err != nil {
		return err
	}
	hs, err := buildHistories(b, histCheckpointRows, histJournalRows)
	if err != nil {
		return err
	}
	f, err := launchFleet(b, hs)
	if err != nil {
		return err
	}
	defer f.stop()

	hc := newClient(b.nproc)
	u := newUploader(b, hc, f.lb.url, b.nproc, pool, "s")
	// The first seconds after launch run slower (first open-loop window
	// p50 5.3–5.5 ms against 3.9–4.5 ms for the next three), so a short
	// open loop at the same rate runs first: checked, not timed.
	warm := newUploader(b, hc, f.lb.url, b.nproc, pool, "w")
	warmed := openLoop(ctx, int(spec.rate*warmupSeconds), spec.rate, b.nproc, warm.op)
	openDur := b.seconds * 3 / 5
	n := int(spec.rate * openDur.Seconds())
	// The open loop runs as the windows its latencies are cut into,
	// with a calibration point (calib.go) before and after each.
	cal := newCalibrator(b.nproc)
	cal.mark()
	var open []sample
	var p50s, tails, q []float64
	k := max(1, min(latencyWindows, n/300))
	for w := 0; w < k; w++ {
		first := w * n / k
		part := openLoop(ctx, (w+1)*n/k-first, spec.rate, b.nproc, func(ctx context.Context, c, i int) (int, error) {
			return u.op(ctx, c, first+i)
		})
		for i := range part {
			part[i].Index += first
		}
		open = append(open, part...)
		cal.mark()
		lat := millis(part, func(s sample) time.Duration { return s.Latency })
		t, tq := tail(lat, spec.tailQ)
		p50s, tails, q = append(p50s, median(lat)), append(tails, t), append(q, tq)
	}
	// The capacity phase runs as closedSegments back-to-back closed
	// loops; throughput is the median segment's, so one slow stretch of
	// a shared machine moves it less than a single long average would.
	var closed []sample
	var rates []float64
	next := n
	for seg := 0; seg < closedSegments; seg++ {
		part, wall := closedLoop(ctx, (b.seconds-openDur)/closedSegments, b.nproc, next, u.op)
		cal.mark()
		next += len(part)
		records := 0
		for _, s := range part {
			if s.Err == nil {
				records += s.Work
			}
		}
		rates = append(rates, float64(records)/wall.Seconds())
		closed = append(closed, part...)
	}
	if err := f.alive(); err != nil {
		return err
	}
	countFailures(b, "session", open)
	countFailures(b, "session", closed)

	// Times are in reference seconds (calib.go): the open-loop windows
	// are pieces 0..k-1, the closed-loop segments k onwards. Each
	// figure is the median over its pieces.
	var refP50, refTail, refRates []float64
	for w := range p50s {
		refP50 = append(refP50, p50s[w]/cal.around(w))
		refTail = append(refTail, tails[w]/cal.around(w))
	}
	for seg, r := range rates {
		refRates = append(refRates, r*cal.around(k+seg))
	}
	b.setE2E("latency_p50_ref_ms", "ref_ms", median(refP50))
	b.setE2E("latency_tail_ref_ms", "ref_ms", median(refTail))
	b.setE2E("throughput_per_ref_s", "1/ref_s", median(refRates))
	b.notes["open_loop"] = fmt.Sprintf("%d sessions at %.0f/s over %s in %d windows; per window p50 %.3f ms, p%g %.3f ms",
		n, spec.rate, openDur, k, p50s, q[0]*100, tails)
	b.notes["closed_loop"] = fmt.Sprintf("%d sessions with %d uploaders; segment records/s %.0f", len(closed), b.nproc, rates)
	b.notes["ref_second_s"] = fmt.Sprintf("%.3f", cal.points)
	b.notes["host"] = cal.hostNote()

	checkRows(ctx, b, hc, f.lb.url, u, append(open, closed...))
	countFailures(b, "warm-up session", warmed)
	checkRows(ctx, b, hc, f.lb.url, warm, warmed)

	var pr *probeResult
	if b.trace {
		mix := buildQueryMix(b.seed, poolRows(pool), 2, 0)
		if pr, err = fleetLayers(ctx, b, f, hc, pool, mix, open, u); err != nil {
			return err
		}
		if err := replayAndAttribute(b, pool, hs[0], mix, pr); err != nil {
			return err
		}
	}
	stored := u.sessions + warm.sessions
	if pr != nil {
		stored += pr.uploads
	}
	setUsage(b, f.stop(), stored, true)
	return nil
}

// setUsage records what the fleet's processes consumed. Peak resident
// memory summed over every server process is the end-to-end figure
// (when e2e is set); per layer, memory and CPU time per stored session
// split the nodes from the balancer. CPU time covers each process's
// whole life, so it includes the output checks' and probes' reads.
func setUsage(b *bench, use map[string]usage, sessions int, e2e bool) {
	total, node := 0.0, 0.0
	var nodeCPU time.Duration
	for name, u := range use {
		total += u.rssMiB
		if name != "dominolb" {
			node = max(node, u.rssMiB)
			nodeCPU += u.cpu
		}
	}
	if e2e {
		b.setE2E("peak_rss_mb", "MiB", total)
	}
	perSession := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(max(sessions, 1)) }
	b.setLayer("dominod.peak_rss_mb", "MiB", node)
	b.setLayer("balancer.peak_rss_mb", "MiB", use["dominolb"].rssMiB)
	b.setLayer("dominod.cpu_ms_per_session", "ms", perSession(nodeCPU))
	b.setLayer("balancer.cpu_ms_per_session", "ms", perSession(use["dominolb"].cpu))
}

// poolRows collapses each pool report into a store row.
func poolRows(pool []payload) []rcastore.Record {
	rows := make([]rcastore.Record, 0, len(pool))
	for i, p := range pool {
		rows = append(rows, rcastore.FromReport(fmt.Sprintf("pool-%d", i), 0, p.Report))
	}
	return rows
}

// probeResult is what the idle-fleet probe measured.
type probeResult struct {
	direct   map[int][]float64 // pool index → idle direct-upload latencies, ms
	directMs []float64
	uploads  int
}

// fleetLayers measures the fleet-side per-layer metrics on an idle
// fleet after the load phases: paired uploads of the same payload
// through dominolb and direct to a node (balancer.hop_ms), paired
// queries (balancer.fanout_ms), the nodes' rejection counters, and the
// generator's own figures from the open-loop samples.
func fleetLayers(ctx context.Context, b *bench, f *fleet, hc *http.Client, pool []payload, mix []querySpec, open []sample, u *uploader) (*probeResult, error) {
	pr := &probeResult{direct: map[int][]float64{}}
	upload := func(base, id string, p payload) (float64, error) {
		t0 := time.Now()
		_, err := ingest.New(ingest.Options{BaseURL: base, HTTPClient: hc}).Upload(ctx, id, ingest.ContentTypeBinary, p.Body)
		return float64(time.Since(t0)) / 1e6, err
	}
	var hops []float64
	pairs := max(24, len(pool))
	for i := 0; i < pairs; i++ {
		idx := i % len(pool)
		p := pool[idx]
		node := f.nodes[i%len(f.nodes)]
		var tLB, tD float64
		var errLB, errD error
		// Alternate which side goes first so warm caches favour neither.
		if i%2 == 0 {
			tLB, errLB = upload(f.lb.url, fmt.Sprintf("probe-lb-%d-%d", b.seed, i), p)
			tD, errD = upload(node.url, fmt.Sprintf("probe-direct-%d-%d", b.seed, i), p)
		} else {
			tD, errD = upload(node.url, fmt.Sprintf("probe-direct-%d-%d", b.seed, i), p)
			tLB, errLB = upload(f.lb.url, fmt.Sprintf("probe-lb-%d-%d", b.seed, i), p)
		}
		b.attempted += 2
		pr.uploads += 2
		if errLB != nil || errD != nil {
			b.fail("probe upload %d: lb %v, direct %v", i, errLB, errD)
			continue
		}
		hops = append(hops, tLB-tD)
		pr.direct[idx] = append(pr.direct[idx], tD)
		pr.directMs = append(pr.directMs, tD)
	}
	var fan []float64
	for rep := 0; rep < 3; rep++ {
		for _, qs := range mix {
			t0 := time.Now()
			_, errLB := httpGet(ctx, hc, f.lb.url, qs.path)
			tLB := float64(time.Since(t0)) / 1e6
			t0 = time.Now()
			_, errD := httpGet(ctx, hc, f.nodes[0].url, qs.path)
			tD := float64(time.Since(t0)) / 1e6
			b.attempted += 2
			if errLB != nil || errD != nil {
				b.fail("probe query %s: lb %v, direct %v", qs.path, errLB, errD)
				continue
			}
			fan = append(fan, tLB-tD)
		}
	}
	b.setLayer("balancer.hop_ms", "ms", median(hops))
	b.setLayer("balancer.fanout_ms", "ms", median(fan))
	idle := median(append([]float64(nil), pr.directMs...))
	b.setLayer("dominod.idle_direct_ms", "ms", idle)
	openLat := millis(open, func(s sample) time.Duration { return s.Latency })
	b.setLayer("dominod.queue_wait_ms", "ms", median(openLat)-idle)
	b.setLayer("loadgen.lag_ms", "ms", median(millis(open, func(s sample) time.Duration { return s.Lag })))

	rejected := 0.0
	for _, n := range f.nodes {
		v, err := scrapeCounter(ctx, hc, n.url, "dominod_ingest_rejected_total")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", n.name, err)
		}
		rejected += v
	}
	b.setLayer("dominod.rejected", "count", rejected)
	u.mu.Lock()
	b.setLayer("ingest.shed_retries", "count", float64(u.shed))
	b.setLayer("ingest.attempts_per_session", "ratio", float64(u.attempts)/float64(max(u.sessions, 1)))
	u.mu.Unlock()
	return pr, nil
}

// replayAndAttribute runs the in-process layer replay and charges the
// idle direct-upload latency that no layer accounts for to
// dominod.unaccounted_ms: per probed payload, its direct latency minus
// the in-process wall of the same payload, median over the probes.
func replayAndAttribute(b *bench, pool []payload, h history, mix []querySpec, pr *probeResult) error {
	inproc, err := replayLayers(b, pool, h, mix)
	if err != nil {
		return err
	}
	var diffs []float64
	for idx, ds := range pr.direct {
		for _, d := range ds {
			diffs = append(diffs, d-inproc[idx])
		}
	}
	unaccounted := median(diffs)
	b.setLayer("dominod.unaccounted_ms", "ms", unaccounted)
	idle := median(append([]float64(nil), pr.directMs...))
	b.notes["idle_direct_breakdown"] = fmt.Sprintf("idle direct upload %.3f ms = in-process layers %.3f ms + unaccounted %.3f ms",
		idle, idle-unaccounted, unaccounted)
	return nil
}
