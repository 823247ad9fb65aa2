// Package ingest is the retrying, resumable client side of dominod's
// ingest protocol. It uploads a session trace with seeded jittered
// exponential backoff and, when a connection drops mid-stream, resumes
// from the server's record watermark instead of starting the session
// over.
//
// # Protocol
//
// A session upload is POST /ingest?session=ID with the trace stream as
// the body. Two headers make it resumable:
//
//   - X-Domino-Seq: the record index at which this body starts, where
//     record 0 is the stream header. A request without the header is
//     the legacy one-shot contract (body EOF completes the session).
//   - X-Domino-Eos: "1" marks the request that carries the end of the
//     session; the session completes only when such a request finishes
//     with every record accepted.
//
// The server tracks how many records it has accepted per session and
// serves that count at GET /sessions/{id}/watermark. A retrying client
// probes the watermark and replays from it: JSONL bodies are trimmed
// to the unacknowledged suffix (one record per line, so the watermark
// is a line offset); binary bodies are resent whole with
// X-Domino-Seq: 0, because dictionary frames make a mid-stream byte
// offset meaningless — the server skips the already-accepted prefix
// and counts the duplicates as deduped, not double-analyzed.
//
// Retry classification: transport errors, 429 (overload), 412 (seq
// gap), and 5xx responses retry; 4xx contract violations (400, 404,
// 409, 413, 415) fail permanently. A Retry-After header, when present,
// overrides the computed backoff if longer.
package ingest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Protocol header and media-type names shared by client and server.
const (
	// HeaderSeq carries the record index at which the request body
	// starts; record 0 is the stream header.
	HeaderSeq = "X-Domino-Seq"
	// HeaderEos marks the request that carries the end of the session.
	HeaderEos = "X-Domino-Eos"

	// ContentTypeBinary selects the binary columnar trace format.
	ContentTypeBinary = "application/x-domino-trace"
	// ContentTypeJSONL selects the JSONL trace format.
	ContentTypeJSONL = "application/x-ndjson"
)

// Watermark is the GET /sessions/{id}/watermark response body.
type Watermark struct {
	Session  string `json:"session"`
	Accepted int    `json:"accepted"`
	State    string `json:"state"`
	// Ingesting reports that an upload still holds the session, so
	// Accepted may yet grow; a suspended session reports false.
	Ingesting bool `json:"ingesting"`
}

// Options configures a Client.
type Options struct {
	// BaseURL is the dominod root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTPClient issues the requests (default http.DefaultClient).
	// Fault injection wraps here: &http.Client{Transport: flaky}.
	HTTPClient *http.Client
	// Retries is how many times a failed upload is retried after the
	// first attempt (default 0: one shot).
	Retries int
	// Backoff is the base delay before the first retry; attempt n
	// waits Backoff·2ⁿ·jitter where jitter ∈ [0.5, 1.0) (default 50ms).
	Backoff time.Duration
	// MaxBackoff caps the computed delay (default 2s).
	MaxBackoff time.Duration
	// Seed drives the jitter; same seed = same delay schedule.
	Seed int64
	// Sleep is the delay function, injectable for tests
	// (default time.Sleep). It is called with each retry delay.
	Sleep func(time.Duration)
}

// UploadStats reports what an Upload took.
type UploadStats struct {
	Attempts int // POSTs issued, including the successful one
	Resumed  int // retries that replayed from a nonzero watermark
	// ShedRetries counts retries forced by load shedding or failover:
	// 429s and 503s, the statuses dominod and dominolb answer with when
	// telling the client "back off and try again".
	ShedRetries int
}

// Client uploads session traces with retry and resume. Safe for
// sequential use; give concurrent uploaders their own Client so the
// jitter sequence stays deterministic.
type Client struct {
	opts Options
	rng  *rand.Rand
}

// New builds a Client from opts, applying defaults.
func New(opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	return &Client{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Upload streams a complete session (header through final record) to
// the server, retrying and resuming per the package protocol.
// contentType must be ContentTypeJSONL or ContentTypeBinary and match
// the payload encoding.
func (c *Client) Upload(ctx context.Context, session, contentType string, payload []byte) (UploadStats, error) {
	var stats UploadStats
	jsonl := contentType != ContentTypeBinary
	seq, body := 0, payload
	var lastErr error
	for attempt := 0; ; attempt++ {
		stats.Attempts++
		status, retryAfter, err := c.post(ctx, session, contentType, seq, body)
		if err == nil && status/100 == 2 {
			return stats, nil
		}
		switch {
		case err != nil:
			lastErr = fmt.Errorf("ingest %s attempt %d: %w", session, stats.Attempts, err)
		case retryableStatus(status):
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				stats.ShedRetries++
			}
			lastErr = fmt.Errorf("ingest %s attempt %d: server returned %d", session, stats.Attempts, status)
		default:
			return stats, fmt.Errorf("ingest %s: permanent failure, server returned %d", session, status)
		}
		if attempt >= c.opts.Retries {
			return stats, fmt.Errorf("%w (retries exhausted)", lastErr)
		}
		c.opts.Sleep(c.backoff(attempt, retryAfter))
		if ctx.Err() != nil {
			return stats, ctx.Err()
		}
		// Resume from wherever the server got to. A failed probe keeps
		// the previous offset — worst case we resend bytes the server
		// dedups anyway.
		if w, werr := c.watermark(ctx, session); werr == nil {
			if w.Accepted > 0 {
				stats.Resumed++
			}
			if jsonl {
				seq, body = w.Accepted, trimRecords(payload, w.Accepted)
			} else {
				seq, body = 0, payload
			}
		}
	}
}

func (c *Client) post(ctx context.Context, session, contentType string, seq int, body []byte) (status int, retryAfter time.Duration, err error) {
	u := c.opts.BaseURL + "/ingest?session=" + url.QueryEscape(session)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(HeaderSeq, strconv.Itoa(seq))
	req.Header.Set(HeaderEos, "1")
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// Watermark probes how many records the server has accepted for a
// session. A session the server has never seen reports 0.
func (c *Client) Watermark(ctx context.Context, session string) (Watermark, error) {
	return c.watermark(ctx, session)
}

func (c *Client) watermark(ctx context.Context, session string) (Watermark, error) {
	u := c.opts.BaseURL + "/sessions/" + url.PathEscape(session) + "/watermark"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return Watermark{}, err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return Watermark{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return Watermark{Session: session}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return Watermark{}, fmt.Errorf("watermark %s: server returned %d", session, resp.StatusCode)
	}
	var w Watermark
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&w); err != nil {
		return Watermark{}, fmt.Errorf("watermark %s: %w", session, err)
	}
	return w, nil
}

// Report fetches the session's report body from GET /report/{id}.
func (c *Client) Report(ctx context.Context, session string) ([]byte, error) {
	u := c.opts.BaseURL + "/report/" + url.PathEscape(session)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report %s: server returned %d", session, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// backoff computes the delay before retry n (0-based): seeded jittered
// exponential, capped, overridden by a longer server Retry-After.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	d := c.opts.Backoff << uint(n)
	if d <= 0 || d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusPreconditionFailed ||
		status/100 == 5
}

// trimRecords drops the first n newline-terminated records from a
// JSONL payload; record 0 is the header line.
func trimRecords(payload []byte, n int) []byte {
	rest := payload
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil
		}
		rest = rest[nl+1:]
	}
	return rest
}
