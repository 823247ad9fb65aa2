package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/domino5g/domino"
	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/scenario"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// payload is one generated session: the binary trace a client uploads
// and the batch analyzer's report on the same trace, the reference its
// stored row must match.
type payload struct {
	Scenario string
	Seed     uint64
	Body     []byte // DMNTRCB1 binary trace, the format clients negotiate
	Records  int    // data records, header excluded
	Report   *core.Report
}

// genStats times what building a pool cost.
type genStats struct {
	SimNanos     int64 // Scenario.Build + Session.Run
	SimRecords   int
	AnalyzeNanos int64 // batch core.Analyzer.Analyze
	Sessions     int
}

// newAnalyzer builds the analyzer dominod builds at its defaults.
func newAnalyzer() (*core.Analyzer, error) {
	return domino.NewAnalyzer(domino.DetectorConfig{}, domino.DefaultGraph())
}

// genPool builds n sessions of length dur from seed. Scenarios cycle
// through a seeded permutation of the 14-scenario catalog, so every
// pool of 14 or more holds dense (T-Mobile) and sparse
// (Amarisoft/Mosolabs) cells alike; each session gets its own
// simulator seed. The same seed always yields byte-identical bodies.
func genPool(seed int64, n int, dur sim.Time, a *core.Analyzer) ([]payload, genStats, error) {
	rng := rand.New(rand.NewSource(seed))
	names := scenario.Names()
	perm := rng.Perm(len(names))
	var st genStats
	out := make([]payload, n)
	for i := range out {
		name := names[perm[i%len(names)]]
		simSeed := rng.Uint64()
		sc, err := scenario.ByName(name)
		if err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		sess, err := sc.Build(simSeed)
		if err != nil {
			return nil, st, fmt.Errorf("building %s: %w", name, err)
		}
		set := sess.Run(dur)
		st.SimNanos += int64(time.Since(t0))
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, set); err != nil {
			return nil, st, fmt.Errorf("encoding %s: %w", name, err)
		}
		recs := len(set.DCI) + len(set.GNBLogs) + len(set.Packets) + len(set.Stats) + len(set.RRC)
		st.SimRecords += recs
		var rep *core.Report
		if a != nil {
			t1 := time.Now()
			rep, err = a.Analyze(set)
			if err != nil {
				return nil, st, fmt.Errorf("analyzing %s: %w", name, err)
			}
			st.AnalyzeNanos += int64(time.Since(t1))
		}
		out[i] = payload{Scenario: name, Seed: simSeed, Body: buf.Bytes(), Records: recs, Report: rep}
		st.Sessions++
	}
	return out, st, nil
}
