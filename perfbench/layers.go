package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/domino5g/domino/internal/core"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/stream"
	"github.com/domino5g/domino/internal/trace"
)

// Span names of the in-process replay, in dominod's call order. "push"
// spans one decoded chunk's per-record Observe calls; the window
// evaluations that a record's arrival triggers (evict, eval, step) are
// its children, so push's self time is the observe cost.
const (
	spanSession = "session"
	spanDecode  = "decode"
	spanPush    = "push"
	spanEvict   = "evict"
	spanEval    = "eval"
	spanStep    = "step"
	spanClose   = "close"
	spanFinish  = "finish"
	spanInsert  = "insert"
	spanAppend  = "append"
	spanFsync   = "fsync"
)

// replayer drives one session at a time through the layers dominod
// calls on ingest — binary decode, window evaluator, incremental DAG,
// store insert, journal append — from the benchmark's own code, so the
// program itself is unchanged. With a nil tracer it records nothing.
type replayer struct {
	a            *core.Analyzer
	window, step sim.Time
	store        *rcastore.Store
	journal      *rcastore.Journal
	tr           *tracer
	eval         *core.WindowEvaluator
	inc          *core.Incremental

	// Read by the journal's filesystem wrapper to parent fsync spans.
	session string
	parent  int
	syncs   int
	appends int
}

func (r *replayer) begin(name string, parent int) int {
	if r.tr == nil {
		return 0
	}
	return r.tr.begin(r.session, name, parent)
}

func (r *replayer) end(id int) {
	if r.tr != nil {
		r.tr.end(id)
	}
}

// timingFS is the journal's filesystem with every fsync counted and,
// when tracing, spanned as a child of the append that caused it.
type timingFS struct {
	rcastore.OsFS
	r *replayer
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (rcastore.File, error) {
	file, err := f.OsFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, r: f.r}, nil
}

type timedFile struct {
	rcastore.File
	r *replayer
}

func (t timedFile) Sync() error {
	id := t.r.begin(spanFsync, t.r.parent)
	err := t.File.Sync()
	t.r.end(id)
	t.r.syncs++
	return err
}

// replaySession runs one session's binary trace through the layers and
// returns the stored row.
func (r *replayer) replaySession(id string, body []byte, start sim.Time) (rcastore.Record, error) {
	r.session = id
	root := r.begin(spanSession, 0)
	defer r.end(root)
	br := trace.NewBinaryStreamReader(bytes.NewReader(body))
	br.Recycle(1)
	var (
		hdr       *trace.Header
		nextStart sim.Time
		watermark sim.Time
	)
	// advance mirrors stream.Analyzer's window scheduling: a window is
	// evaluated once the watermark passes its end.
	advance := func(flush bool, parent int) {
		lastStart := sim.MaxTime - r.window
		if hdr.Duration > 0 {
			lastStart = hdr.Duration - r.window
		} else if flush {
			lastStart = watermark - r.window
		}
		for nextStart <= lastStart {
			if !flush && watermark < nextStart+r.window {
				return
			}
			s := r.begin(spanEvict, parent)
			r.eval.EvictBefore(nextStart)
			r.end(s)
			s = r.begin(spanEval, parent)
			v := r.eval.Eval(nextStart)
			r.end(s)
			s = r.begin(spanStep, parent)
			r.inc.Step(v)
			r.end(s)
			nextStart += r.step
		}
	}
	for {
		s := r.begin(spanDecode, root)
		batch, err := br.ReadBatch(nil)
		r.end(s)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return rcastore.Record{}, fmt.Errorf("decoding %s: %w", id, err)
		}
		if len(batch) == 1 && batch[0].Header != nil {
			h := *batch[0].Header
			hdr = &h
			if r.eval == nil {
				r.eval = r.a.NewWindowEvaluator(h.HasGNBLog)
				r.inc = r.a.NewIncremental(h.CellName)
			} else {
				r.eval.Reset(h.HasGNBLog)
				r.inc.Reset(h.CellName)
			}
			r.inc.SetScenario(h.Scenario)
			// dominod's streams drop per-window results (DropWindows);
			// Reset turns keeping them back on.
			r.inc.SetKeepWindows(false)
			continue
		}
		if hdr == nil {
			return rcastore.Record{}, fmt.Errorf("%s: records before the header", id)
		}
		push := r.begin(spanPush, root)
		for _, rec := range batch {
			t, _ := rec.Time()
			r.eval.Observe(rec)
			if t > watermark {
				watermark = t
			}
			advance(false, push)
		}
		r.end(push)
	}
	if hdr == nil {
		return rcastore.Record{}, fmt.Errorf("%s: no header", id)
	}
	cl := r.begin(spanClose, root)
	advance(true, cl)
	duration := hdr.Duration
	if duration == 0 {
		duration = watermark
	}
	s := r.begin(spanFinish, cl)
	rep, _, _ := r.inc.Finish(duration)
	r.end(s)
	r.end(cl)

	s = r.begin(spanInsert, root)
	row := rcastore.FromReport(id, start, rep)
	r.store.Insert(row)
	r.end(s)

	r.parent = r.begin(spanAppend, root)
	err := r.journal.Append(row)
	r.end(r.parent)
	r.parent = 0
	r.appends++
	return row, err
}

// recoverRounds is how many times the replay recovers the node's
// history; rcastore.recover_s is the median.
const recoverRounds = 3

// replayLayers recovers a node's history in-process, as dominod does
// at boot, timing rcastore.Recover. It then replays the pool into the
// recovered store and journal (SyncEvery 1), each payload once untraced
// and once traced per round, records per-layer metrics on b, and runs
// the query mix against the store. It returns each pool entry's median
// untraced wall for dominod.unaccounted_ms.
func replayLayers(b *bench, pool []payload, h history, mix []querySpec) (map[int]float64, error) {
	dir := filepath.Join(b.work, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jpath := filepath.Join(dir, "journal.wal")
	if err := h.install(jpath); err != nil {
		return nil, err
	}
	cfg := b.analyzer.Config()
	r := &replayer{a: b.analyzer, window: cfg.Window, step: cfg.Step}
	var recovers []float64
	for i := 0; i < recoverRounds; i++ {
		if r.journal != nil {
			if err := r.journal.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		st, j, rstats, err := rcastore.Recover(jpath+".ckpt", jpath, rcastore.Options{MaxBlocks: 4096},
			rcastore.JournalOptions{SyncEvery: 1, FS: timingFS{r: r}})
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, time.Since(t0).Seconds())
		r.store, r.journal = st, j
		b.notes["recover"] = fmt.Sprintf("%d checkpoint rows, %d journal rows", rstats.CheckpointRows, rstats.Replayed)
	}
	b.setLayer("rcastore.recover_s", "s", median(recovers))
	r.syncs = 0
	start := histClock
	tr := newTracer()
	var (
		untraced = map[int][]float64{}
		plain    []float64 // untraced session walls, all pool entries
		traced   []float64
		records  int
		sessions int
	)
	budget := 2 * time.Second
	began := time.Now()
	for round := 0; round < 2 || (round < 10 && time.Since(began) < budget); round++ {
		for i, p := range pool {
			// Each payload runs untraced and traced, the order alternating
			// so that neither pass always finds the caches warm.
			for pass := 0; pass < 2; pass++ {
				tracedPass := (pass+round+i)%2 == 1
				r.tr = nil
				name := fmt.Sprintf("plain-%d-%d", round, i)
				if tracedPass {
					r.tr = tr
					name = fmt.Sprintf("traced-%d-%d", round, i)
				}
				t0 := time.Now()
				row, err := r.replaySession(name, p.Body, start)
				if err != nil {
					return nil, err
				}
				wall := float64(time.Since(t0)) / 1e6
				if tracedPass {
					traced = append(traced, wall)
					continue
				}
				untraced[i] = append(untraced[i], wall)
				plain = append(plain, wall)
				if p.Report != nil {
					want, _ := canonicalJSON(rcastore.FromReport(row.Session, start, p.Report))
					got, _ := canonicalJSON(row)
					if !bytes.Equal(want, got) {
						b.fail("in-process replay of %s (%s) differs from batch analysis", row.Session, p.Scenario)
					}
				}
			}
			records += p.Records
			sessions++
		}
	}
	calls := map[string]int{}
	for _, s := range tr.spans {
		calls[s.Name]++
	}
	windows := calls[spanStep]
	self := selfTimes(tr.spans)
	ns := func(name string) float64 { return float64(self[name]) }
	perRec := func(name string) float64 { return ns(name) / float64(max(records, 1)) }
	perWin := func(name string) float64 { return ns(name) / float64(max(windows, 1)) }
	perSess := func(name string) float64 { return ns(name) / float64(max(sessions, 1)) }
	b.setLayer("trace.decode_ns_per_record", "ns", perRec(spanDecode))
	b.setLayer("core.observe_ns_per_record", "ns", perRec(spanPush))
	b.setLayer("core.evict_ns_per_window", "ns", perWin(spanEvict))
	b.setLayer("core.eval_ns_per_window", "ns", perWin(spanEval))
	b.setLayer("core.dag_step_ns_per_window", "ns", perWin(spanStep))
	b.setLayer("core.dag_finish_us_per_session", "us", perSess(spanFinish)/1e3)
	b.setLayer("rcastore.insert_us", "us", perSess(spanInsert)/1e3)
	b.setLayer("rcastore.journal_append_us", "us", perSess(spanAppend)/1e3)
	b.setLayer("rcastore.journal_fsync_us", "us", ns(spanFsync)/float64(max(calls[spanFsync], 1))/1e3)
	b.setLayer("rcastore.fsyncs_per_report", "ratio", float64(r.syncs)/float64(max(r.appends, 1)))
	tracedP50, plainP50 := median(traced), median(plain)
	b.setLayer("trace.overhead_pct", "%", (tracedP50/plainP50-1)*100)
	b.notes["replay"] = fmt.Sprintf("%d sessions, %d records, %d windows, %d spans; untraced p50 %.3f ms, traced p50 %.3f ms",
		sessions, records, windows, len(tr.spans), plainP50, tracedP50)

	if err := streamPush(b, pool); err != nil {
		return nil, err
	}
	timeQueries(b, r.store, mix)
	if err := r.journal.Close(); err != nil {
		return nil, err
	}
	if err := tr.writeJSONL(filepath.Join(filepath.Dir(b.work), fmt.Sprintf("%s-seed%d-spans.jsonl", b.workload, b.seed))); err != nil {
		return nil, err
	}
	out := map[int]float64{}
	for i, walls := range untraced {
		out[i] = median(walls)
	}
	return out, nil
}

// streamPush times stream.Analyzer.Push over each decoded payload, the
// composed form of the observe/evict/eval/step rows.
func streamPush(b *bench, pool []payload) error {
	var total time.Duration
	records := 0
	// One analyzer, Reset per session, as dominod pools them, in
	// dominod's configuration: per-window results dropped, and its
	// -lateness 0 and -drop-late false defaults (the zero values).
	sa := stream.New(b.analyzer, stream.Config{DropWindows: true})
	for _, p := range pool {
		br := trace.NewBinaryStreamReader(bytes.NewReader(p.Body))
		var batches [][]trace.Record
		for {
			batch, err := br.ReadBatch(nil)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			batches = append(batches, batch)
		}
		sa.Reset()
		t0 := time.Now()
		for _, batch := range batches {
			if err := sa.PushBatch(batch); err != nil {
				return err
			}
		}
		if _, err := sa.Close(); err != nil {
			return err
		}
		total += time.Since(t0)
		records += p.Records
	}
	b.setLayer("stream.push_ns_per_record", "ns", float64(total)/float64(max(records, 1)))
	return nil
}

// timeQueries runs each query of the mix against the store a few
// times and records the median per kind.
func timeQueries(b *bench, store *rcastore.Store, mix []querySpec) {
	byKind := map[string][]float64{}
	for rep := 0; rep < 3; rep++ {
		for _, qs := range mix {
			t0 := time.Now()
			qs.inProcess(store)
			byKind[qs.kind] = append(byKind[qs.kind], float64(time.Since(t0))/1e6)
		}
	}
	for _, kind := range queryKinds {
		b.setLayer("rcastore.query_ms."+kind, "ms", median(byKind[kind]))
	}
}
