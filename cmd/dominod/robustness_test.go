package main

// Fault-tolerance coverage for the ingest surface: load shedding,
// body caps, slot-leak regressions, the resumable-session contract
// (X-Domino-Seq / X-Domino-Eos / watermark), drain behavior, and the
// write-ahead journal wiring. The end-to-end chaos differential lives
// in chaos_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/domino5g/domino/internal/ingest"
	"github.com/domino5g/domino/internal/ran"
	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// postIngest issues one ingest request with the resumable-contract
// headers. seq < 0 omits X-Domino-Seq (the legacy one-shot contract).
func postChunk(t testing.TB, url, session, contentType string, seq int, eos bool, body io.Reader) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/ingest?session="+session, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if seq >= 0 {
		req.Header.Set(ingest.HeaderSeq, strconv.Itoa(seq))
	}
	if eos {
		req.Header.Set(ingest.HeaderEos, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// jsonlPrefix returns the first n newline-terminated lines of body.
func jsonlPrefix(t testing.TB, body []byte, n int) []byte {
	t.Helper()
	rest := body
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			t.Fatalf("body has fewer than %d lines", n)
		}
		rest = rest[nl+1:]
	}
	return body[:len(body)-len(rest)]
}

func TestIngestBodyCapReleasesSlot(t *testing.T) {
	srv := newServer(testAnalyzer(t), serverOptions{MaxStreams: 2, MaxBody: 2048})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Presets()[0], 7, 5*sim.Second)
	if len(body) <= 2048 {
		t.Fatalf("trace too small (%d bytes) to exercise the cap", len(body))
	}
	resp := postChunk(t, ts.URL, "big", "application/jsonl", -1, false, bytes.NewReader(body))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit upload got %d, want 413", resp.StatusCode)
	}
	drainClose(resp)
	if in := srv.limiter.InUse(); in != 0 {
		t.Fatalf("413 leaked %d limiter slots", in)
	}

	// The ID is burned (failed session) but capacity is not: a fresh
	// under-limit session must sail through.
	small := jsonlPrefix(t, body, 3)
	if len(small) > 2048 {
		t.Fatalf("follow-up body %d bytes, does not fit the cap", len(small))
	}
	resp = postChunk(t, ts.URL, "ok", "application/jsonl", -1, false, bytes.NewReader(small))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up ingest got %d, want 200", resp.StatusCode)
	}
	drainClose(resp)
}

func TestIngestOverloadSheds429(t *testing.T) {
	srv := newServer(testAnalyzer(t), serverOptions{MaxStreams: 1, AdmitWait: 30 * time.Millisecond})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	_, body := sessionTrace(t, ran.Presets()[0], 8, 2*sim.Second)
	pr, pw := io.Pipe()
	done := make(chan int, 1)
	go func() {
		resp := postChunk(t, ts.URL, "holder", "application/jsonl", -1, false, pr)
		defer drainClose(resp)
		done <- resp.StatusCode
	}()
	// Feed the header so the holder is admitted, then stall.
	if _, err := pw.Write(jsonlPrefix(t, body, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "holder admitted", func() bool { return srv.limiter.InUse() == 1 })

	resp := postChunk(t, ts.URL, "shed", "application/jsonl", -1, false, bytes.NewReader(body))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	drainClose(resp)
	// Shed before registration: the rejected ID must not exist.
	if r, _ := http.Get(ts.URL + "/report/shed"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("shed session was registered (report status %d)", r.StatusCode)
	}

	// Unblock the holder; it still completes.
	rest := body[len(jsonlPrefix(t, body, 1)):]
	if _, err := pw.Write(rest); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("holder finished with %d after shed", code)
	}
}

func TestLimiterSlotLeakAcrossFailures(t *testing.T) {
	srv := newServer(testAnalyzer(t), serverOptions{MaxStreams: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	for i := 0; i < 12; i++ {
		resp := postChunk(t, ts.URL, fmt.Sprintf("bad-%d", i), "application/jsonl", -1, false,
			strings.NewReader("this is not a trace\n"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed ingest %d got %d, want 400", i, resp.StatusCode)
		}
		drainClose(resp)
	}
	if in := srv.limiter.InUse(); in != 0 {
		t.Fatalf("%d limiter slots leaked across failing sessions", in)
	}
	_, body := sessionTrace(t, ran.Presets()[0], 9, 2*sim.Second)
	resp := postChunk(t, ts.URL, "after", "application/jsonl", -1, false, bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest after failures got %d, want 200", resp.StatusCode)
	}
	drainClose(resp)
}

func TestResumableJSONLChunksAndDedup(t *testing.T) {
	srv := newServer(testAnalyzer(t), serverOptions{MaxStreams: 4})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	set, body := sessionTrace(t, ran.Presets()[0], 11, 5*sim.Second)

	// Chunk 1: records 0..9, no EOS — acked with the watermark.
	resp := postChunk(t, ts.URL, "res", "application/jsonl", 0, false, bytes.NewReader(jsonlPrefix(t, body, 10)))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("chunk got %d, want 202", resp.StatusCode)
	}
	var wm ingest.Watermark
	mustDecode(t, resp, &wm)
	if wm.Accepted != 10 || wm.State != "active" {
		t.Fatalf("watermark after chunk = %+v, want 10 accepted", wm)
	}

	// The watermark endpoint agrees.
	getJSON(t, ts.URL+"/sessions/res/watermark", &wm)
	if wm.Accepted != 10 {
		t.Fatalf("GET watermark = %+v", wm)
	}

	// Chunk 2 replays from record 6 (overlapping 4 records) through the
	// end: the overlap must dedup, not double-count.
	rest := body[len(jsonlPrefix(t, body, 6)):]
	resp = postChunk(t, ts.URL, "res", "application/jsonl", 6, true, bytes.NewReader(rest))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("final chunk got %d: %s", resp.StatusCode, b)
	}
	var rep reportPayload
	mustDecode(t, resp, &rep)
	if rep.State != "done" {
		t.Fatalf("state %q, want done", rep.State)
	}
	if got := srv.m.ingestDeduped.Value(); got != 4 {
		t.Fatalf("deduped %d records, want the 4-record overlap", got)
	}

	// Differential: the chunked+overlapped session matches the batch
	// analyzer on the same trace.
	batch, err := srv.analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != len(batch.Windows) || rep.ChainEvents != batch.TotalChainEvents() {
		t.Fatalf("resumed session diverged: %d windows / %d chain events, batch %d / %d",
			rep.Windows, rep.ChainEvents, len(batch.Windows), batch.TotalChainEvents())
	}

	// Idempotent completion replay: a client that lost the 200 resends
	// its final chunk and must get the report again, not a 409.
	resp = postChunk(t, ts.URL, "res", "application/jsonl", 6, true, bytes.NewReader(rest))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("completion replay got %d, want 200", resp.StatusCode)
	}
	drainClose(resp)
}

func TestResumableSeqGap412(t *testing.T) {
	srv := newServer(testAnalyzer(t), serverOptions{MaxStreams: 2})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	_, body := sessionTrace(t, ran.Presets()[0], 12, 2*sim.Second)
	resp := postChunk(t, ts.URL, "gap", "application/jsonl", 5, true, bytes.NewReader(body))
	if resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("gapped upload got %d, want 412", resp.StatusCode)
	}
	drainClose(resp)
	// Nothing registered, nothing leaked: the client restarts from 0.
	if r, _ := http.Get(ts.URL + "/report/gap"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("gapped session was registered (report status %d)", r.StatusCode)
	}
	resp = postChunk(t, ts.URL, "gap", "application/jsonl", 0, true, bytes.NewReader(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restart from 0 got %d", resp.StatusCode)
	}
	drainClose(resp)
}

func TestResumableBinaryInterruptAndResend(t *testing.T) {
	srv := newServer(testAnalyzer(t), serverOptions{MaxStreams: 2})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	set, _ := sessionTrace(t, ran.Presets()[1], 13, 5*sim.Second)
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, set); err != nil {
		t.Fatal(err)
	}

	// Interrupt a resumable binary upload mid-stream: the session must
	// suspend (stay active, watermark preserved), not fail.
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest?session=bres", pr)
		req.Header.Set("Content-Type", contentTypeBinary)
		req.Header.Set(ingest.HeaderSeq, "0")
		req.Header.Set(ingest.HeaderEos, "1")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			drainClose(resp)
		}
		errc <- err
	}()
	if _, err := pw.Write(bin.Bytes()[:bin.Len()/2]); err != nil {
		t.Fatal(err)
	}
	pw.CloseWithError(fmt.Errorf("connection torn"))
	<-errc

	var wm ingest.Watermark
	// Wait until the torn upload has released the session: while it
	// still holds it, Accepted may grow past what the resend dedups.
	waitFor(t, "session suspended with progress", func() bool {
		resp, err := http.Get(ts.URL + "/sessions/bres/watermark")
		if err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		mustDecode(t, resp, &wm)
		return wm.State == "active" && !wm.Ingesting && wm.Accepted > 0
	})

	// Binary clients cannot splice mid-stream: full resend at seq 0,
	// server dedups the accepted prefix.
	resp := postChunk(t, ts.URL, "bres", contentTypeBinary, 0, true, bytes.NewReader(bin.Bytes()))
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("binary resend got %d: %s", resp.StatusCode, b)
	}
	var rep reportPayload
	mustDecode(t, resp, &rep)
	if rep.State != "done" {
		t.Fatalf("state %q, want done", rep.State)
	}
	if got := srv.m.ingestDeduped.Value(); int(got) != wm.Accepted {
		t.Fatalf("deduped %d, want the %d-record accepted prefix", got, wm.Accepted)
	}
	batch, err := srv.analyzer.Analyze(set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Windows != len(batch.Windows) || rep.ChainEvents != batch.TotalChainEvents() {
		t.Fatalf("resumed binary session diverged from batch analysis")
	}
}

func TestTruncatedBinaryFailsSessionWithPartialReport(t *testing.T) {
	srv := newServer(testAnalyzer(t), serverOptions{MaxStreams: 2})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	set, _ := sessionTrace(t, ran.Presets()[0], 14, 10*sim.Second)
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, set); err != nil {
		t.Fatal(err)
	}
	// Legacy contract (no seq header): a truncated stream is a hard
	// failure, served as a partial report — never a hang.
	cut := bin.Bytes()[:bin.Len()*3/4]
	resp := postChunk(t, ts.URL, "trunc", contentTypeBinary, -1, false, bytes.NewReader(cut))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated binary got %d, want 400", resp.StatusCode)
	}
	drainClose(resp)
	var rep reportPayload
	getJSON(t, ts.URL+"/report/trunc", &rep)
	if rep.State != "failed" || rep.Error == "" {
		t.Fatalf("state %q error %q, want failed with cause", rep.State, rep.Error)
	}
	if rep.Records == 0 {
		t.Fatal("partial report retained no records from before the truncation")
	}

	// Same for a corrupted frame partway through.
	garbled := append([]byte(nil), bin.Bytes()...)
	copy(garbled[len(garbled)/2:], bytes.Repeat([]byte{0x01}, 16))
	resp = postChunk(t, ts.URL, "garbled", contentTypeBinary, -1, false, bytes.NewReader(garbled))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbled binary got %d, want 400", resp.StatusCode)
	}
	drainClose(resp)
	getJSON(t, ts.URL+"/report/garbled", &rep)
	if rep.State != "failed" {
		t.Fatalf("state %q, want failed", rep.State)
	}
	if in := srv.limiter.InUse(); in != 0 {
		t.Fatalf("%d slots leaked by mid-stream failures", in)
	}
}

func TestDrainingRejectsNewWork(t *testing.T) {
	srv := newServer(testAnalyzer(t), serverOptions{MaxStreams: 2})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	srv.draining.Store(true)
	_, body := sessionTrace(t, ran.Presets()[0], 15, 2*sim.Second)
	resp := postChunk(t, ts.URL, "late", "application/jsonl", -1, false, bytes.NewReader(body))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ingest during drain got %d (Retry-After %q), want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	drainClose(resp)

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	mustDecode(t, hz, &health)
	if hz.StatusCode != http.StatusServiceUnavailable || health["status"] != "draining" {
		t.Fatalf("healthz during drain: %d %v, want 503 draining", hz.StatusCode, health)
	}
}

func TestJournalWiredThroughServer(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "store.spill")
	st, j, _, err := rcastore.Recover(ckpt, filepath.Join(dir, "store.wal"), rcastore.Options{}, rcastore.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	at := sim.Time(1_700_000_000_000_000)
	srv := newServer(testAnalyzer(t), serverOptions{
		MaxStreams: 2, Store: st, Journal: j,
		CheckpointPath: ckpt, CheckpointEvery: 2,
		Now: func() sim.Time { return at },
	})
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		_, body := sessionTrace(t, ran.Presets()[i], uint64(20+i), 2*sim.Second)
		resp := postChunk(t, ts.URL, fmt.Sprintf("j-%d", i), "application/jsonl", -1, false, bytes.NewReader(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d got %d", i, resp.StatusCode)
		}
		drainClose(resp)
	}
	if got := srv.m.journalAppends.Value(); got != 2 {
		t.Fatalf("journal recorded %d appends, want 2", got)
	}
	// CheckpointEvery=2 fires an async checkpoint after the second
	// report; it lands as an atomic rename.
	waitFor(t, "async checkpoint written", func() bool {
		if srv.m.journalCheckpoints.Value() == 0 {
			return false
		}
		loaded, err := rcastore.Load(mustOpen(t, ckpt), rcastore.Options{})
		return err == nil && loaded.Len() == 2
	})
}

func mustOpen(t testing.TB, path string) io.Reader {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func mustDecode(t testing.TB, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
