package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

func TestSameSeedSamePayloads(t *testing.T) {
	a, b, c := mustPool(t, 7), mustPool(t, 7), mustPool(t, 8)
	for i := range a {
		if !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("payload %d (%s): same seed, different bytes", i, a[i].Scenario)
		}
	}
	differs := false
	for i := range a {
		differs = differs || !bytes.Equal(a[i].Body, c[i].Body)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generated identical pools")
	}
}

func mustPool(t *testing.T, seed int64) []payload {
	t.Helper()
	pool, _, err := genPool(seed, 3, 2*sim.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

func TestHistoryRecoversCheckpointAndJournal(t *testing.T) {
	a, err := newAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	pool, _, err := genPool(3, 3, 2*sim.Second, a)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	h, err := buildHistory(dir, 1, pool, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "node", "journal.wal")
	if err := os.MkdirAll(filepath.Dir(journal), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := h.install(journal); err != nil {
		t.Fatal(err)
	}
	st, j, stats, err := rcastore.Recover(journal+".ckpt", journal, rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if stats.CheckpointRows != 40 || stats.Replayed != 7 || st.Len() != 47 {
		t.Errorf("recovered %d checkpoint + %d journal rows (%d total), want 40 + 7",
			stats.CheckpointRows, stats.Replayed, st.Len())
	}
}

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{1000, 0.99, true},
		{999, 0.95, true}, // p99 of 999 has only 9 beyond
		{200, 0.95, true},
		{100, 0.9, true},
		{40, 0.75, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, ok := tailQuantile(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
		if ok && beyond(tc.n, q) < 10 {
			t.Errorf("n=%d: quantile %v has %d beyond", tc.n, q, beyond(tc.n, q))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if v, q := tail(xs, 0.99); q != 0.9 || v != 90 {
		t.Errorf("tail(1..100, 0.99) = %v at q=%v, want 90 at the p90 fallback", v, q)
	}
	// Six windows of 100: one window's burst moves neither figure.
	burst := make([]float64, 600)
	for i := range burst {
		burst[i] = float64(i%100 + 1)
		if i < 100 {
			burst[i] *= 50
		}
	}
	if p50, tv, q := windowed(burst, 0.9, 6, 100); p50 != 50 || tv != 90 || q != 0.9 {
		t.Errorf("windowed = %v, %v at q=%v; want 50, 90 at 0.9", p50, tv, q)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 70},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "child", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	// Children cover [10,70) and [90,100) of the parent: 70 of 100.
	if got := self["parent"]; got != 30 {
		t.Errorf("parent self = %d, want 30", got)
	}
	// Child durations 40+40+30, minus the grandchild's 5 inside span 2.
	if got := self["child"]; got != 105 {
		t.Errorf("child self = %d, want 105", got)
	}
	if got := self["grandchild"]; got != 5 {
		t.Errorf("grandchild self = %d, want 5", got)
	}
}

func TestOpenLoopTimesFromDueWhenConnectionsBusy(t *testing.T) {
	// Five operations due 10 ms apart on one connection, each taking
	// 50 ms: operation i starts only when i-1 ends, at about 50i ms, and
	// must be charged from its due time 10i ms, not from its start.
	const hold = 50 * time.Millisecond
	samples := openLoop(context.Background(), 5, 100, 1, func(ctx context.Context, _, i int) (int, error) {
		time.Sleep(hold)
		return 1, nil
	})
	for i, s := range samples {
		wantLat := hold + time.Duration(i)*(hold-10*time.Millisecond)
		if s.Latency < wantLat-2*time.Millisecond {
			t.Errorf("op %d latency %v, want at least %v (timed from its due time)", i, s.Latency, wantLat)
		}
		wantLag := time.Duration(i) * (hold - 10*time.Millisecond)
		if s.Lag < wantLag-2*time.Millisecond {
			t.Errorf("op %d lag %v, want at least %v", i, s.Lag, wantLag)
		}
	}
	// With idle connections the schedule holds: latency is the service
	// time and the generator is not late.
	samples = openLoop(context.Background(), 4, 20, 4, func(ctx context.Context, _, i int) (int, error) {
		time.Sleep(5 * time.Millisecond)
		return 1, nil
	})
	for i, s := range samples {
		if s.Latency > 40*time.Millisecond || s.Lag > 30*time.Millisecond {
			t.Errorf("idle op %d: latency %v lag %v", i, s.Latency, s.Lag)
		}
	}
}

func TestSameJSONToleratesFloatReassociation(t *testing.T) {
	if !sameJSON([]byte(`[{"m":1.5,"n":2}]`), []byte(`[{"m":1.5000000000000002,"n":2}]`)) {
		t.Error("1-ulp float difference rejected")
	}
	if sameJSON([]byte(`[{"m":1.5}]`), []byte(`[{"m":1.6}]`)) {
		t.Error("different values accepted")
	}
	if sameJSON([]byte(`[{"runs":1667}]`), []byte(`[{"runs":3333}]`)) {
		t.Error("different counts accepted")
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the
// benchmark's runner reads, in step with the metrics this program
// reports and the workloads it knows.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []decl, want []metricDecl, bounds bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (bounds && g.Bound != w.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics, true)
	check("per_layer", spec.PerLayer, layerMetrics, false)
}

// The calibration kernel must do the same work on every call, or the
// reference second would move with the run; a piece's reference second
// is the mean of the points on either side of it.
func TestCalibrationKernelFixedWork(t *testing.T) {
	c := newCalibrator(2)
	a, b := c.bufs[0].chunk(), c.bufs[0].chunk()
	if a != b || a == 0 {
		t.Errorf("kernel chunk sums %v then %v; want the same non-zero sum", a, b)
	}
	c.points = []float64{1.5, 0.5, 1.0, 3.0}
	// Piece i runs between points i and i+1.
	for i, want := range []float64{1.0, 0.75, 2.0} {
		if got := c.around(i); got != want {
			t.Errorf("around(%d) = %v, want %v", i, got, want)
		}
	}
}
