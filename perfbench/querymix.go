package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// Query-mix shape. The fleet runs at histClock, so rows are checkable.
const (
	qmRowsPerNode = 20000 // generated history per node, loaded at recovery
	qmTrickleRate = 4.0   // open-loop fleet-short uploads per second beside the queries
	qmTailQ       = 0.95
)

// runQueryMix: each node recovers a generated history checkpoint, then
// closed-loop query clients run the fixed mix through dominolb while an
// open-loop trickle of fleet-short uploads writes to the same stores.
// Afterwards every merged answer is checked against the same query run
// in-process over the union of both nodes' rows.
func runQueryMix(b *bench) error {
	ctx := context.Background()
	pool, _, err := genPool(b.seed, 24, 6*sim.Second, b.analyzer)
	if err != nil {
		return err
	}
	hs, err := buildHistories(b, qmRowsPerNode, 0)
	if err != nil {
		return err
	}
	f, err := launchFleet(b, hs, "-fixed-clock", fmt.Sprint(int64(histClock)))
	if err != nil {
		return err
	}
	defer f.stop()

	mix := buildQueryMix(b.seed, poolRows(pool), 4, histClock-6*3600*sim.Second)
	hc := newClient(b.nproc)
	queryConns := max(1, b.nproc-1)
	u := newUploader(b, hc, f.lb.url, 1, pool, "t")
	nTrickle := int(qmTrickleRate * b.seconds.Seconds())
	var trickle []sample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		trickle = openLoop(ctx, nTrickle, qmTrickleRate, 1, u.op)
	}()
	cal := newCalibrator(b.nproc)
	cal.mark()
	queries, wall := closedLoop(ctx, b.seconds, queryConns, 0, func(ctx context.Context, _, i int) (int, error) {
		_, err := httpGet(ctx, hc, f.lb.url, mix[i%len(mix)].path)
		return 1, err
	})
	wg.Wait()
	cal.mark()
	if err := f.alive(); err != nil {
		return err
	}
	countFailures(b, "query", queries)
	countFailures(b, "trickle session", trickle)

	lat := millis(queries, func(s sample) time.Duration { return s.Latency })
	tailV, q := tail(lat, qmTailQ)
	// Times are in reference seconds (calib.go).
	refS := cal.around(0)
	p50 := median(lat)
	b.setE2E("latency_p50_ref_ms", "ref_ms", p50/refS)
	b.setE2E("latency_tail_ref_ms", "ref_ms", tailV/refS)
	ok := 0
	perKind := map[string][]float64{}
	for _, s := range queries {
		if s.Err == nil {
			ok++
			k := mix[s.Index%len(mix)].kind
			perKind[k] = append(perKind[k], float64(s.Latency)/1e6)
		}
	}
	b.setE2E("throughput_per_ref_s", "1/ref_s", float64(ok)/wall.Seconds()*refS)
	b.notes["queries"] = fmt.Sprintf("%d queries by %d clients in %.2fs, p50 %.3f ms, p%g %.3f ms",
		len(queries), queryConns, wall.Seconds(), p50, q*100, tailV)
	b.notes["ref_second_s"] = fmt.Sprintf("%.3f", cal.points)
	b.notes["host"] = cal.hostNote()
	for _, k := range queryKinds {
		b.notes["query_p50_ms."+k] = fmt.Sprintf("%.3f over %d", median(perKind[k]), len(perKind[k]))
	}
	b.notes["trickle"] = fmt.Sprintf("%d uploads at %.0f/s, p50 %.3f ms", nTrickle, qmTrickleRate,
		median(millis(trickle, func(s sample) time.Duration { return s.Latency })))

	checkRows(ctx, b, hc, f.lb.url, u, trickle)
	if err := checkQueryMix(ctx, b, hc, f, mix); err != nil {
		return err
	}

	stored := u.sessions
	if b.trace {
		pr, err := fleetLayers(ctx, b, f, hc, pool, mix, trickle, u)
		if err != nil {
			return err
		}
		stored += pr.uploads
		if err := replayAndAttribute(b, pool, hs[0], mix, pr); err != nil {
			return err
		}
	}
	setUsage(b, f.stop(), stored, true)
	return nil
}

// checkQueryMix asserts that each query's merged dominolb answer equals
// the same query run in-process over the union of both nodes' rows.
func checkQueryMix(ctx context.Context, b *bench, hc *http.Client, f *fleet, mix []querySpec) error {
	var rows []rcastore.Record
	for _, n := range f.nodes {
		body, err := httpGet(ctx, hc, n.url, "/query")
		if err != nil {
			return fmt.Errorf("dumping %s: %w", n.name, err)
		}
		var resp struct {
			Records []rcastore.Record `json:"records"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		rows = append(rows, resp.Records...)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Start != rows[j].Start {
			return rows[i].Start < rows[j].Start
		}
		return rows[i].Session < rows[j].Session
	})
	union := rcastore.New(rcastore.Options{MaxBlocks: 4096})
	for _, r := range rows {
		union.Insert(r)
	}
	b.notes["union_rows"] = fmt.Sprint(len(rows))
	for _, qs := range mix {
		b.attempted++
		body, err := httpGet(ctx, hc, f.lb.url, qs.path)
		if err != nil {
			b.fail("check query %s: %v", qs.path, err)
			continue
		}
		got, err := qs.canonical(body)
		if err != nil {
			b.fail("check query %s: %v", qs.path, err)
			continue
		}
		want, _ := canonicalJSON(qs.inProcess(union))
		if !sameJSON(got, want) {
			b.fail("query %s: merged answer differs from the in-process union answer:\n  got  %.400s\n  want %.400s", qs.path, got, want)
		}
	}
	return nil
}
