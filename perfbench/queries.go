package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"github.com/domino5g/domino/internal/rcastore"
	"github.com/domino5g/domino/internal/sim"
)

// Query kinds of the fixed mix, in mix order.
const (
	kindRecords    = "records"
	kindTopChains  = "top_chains"
	kindCauseRates = "cause_rates"
	kindSimilar    = "similar"
)

var queryKinds = []string{kindRecords, kindTopChains, kindCauseRates, kindSimilar}

// querySpec is one query of the mix, as an HTTP path and as the
// equivalent in-process store call.
type querySpec struct {
	kind   string
	path   string
	q      rcastore.Query
	k      int
	bucket sim.Time
	fired  []string
}

// buildQueryMix derives a fixed query mix from seed and the rows the
// stores hold: filtered record queries over (cell, cause) pairs that
// occur, top chains, cause rates, and nearest incidents to signatures
// that occur. perKind variants of each kind, interleaved by kind.
// Cause rates cover the fleet timeline from from on (0: all of it).
func buildQueryMix(seed int64, rows []rcastore.Record, perKind int, from sim.Time) []querySpec {
	rng := rand.New(rand.NewSource(seed ^ 0x51ab))
	type pair struct{ cell, cause string }
	seenPair := map[pair]bool{}
	var pairs []pair
	seenSig := map[string]bool{}
	var sigs [][]string
	for _, r := range rows {
		for _, c := range r.Causes {
			p := pair{r.Cell, c.Cause}
			if !seenPair[p] {
				seenPair[p] = true
				pairs = append(pairs, p)
			}
		}
		if key := strings.Join(r.Fired, ","); len(r.Fired) > 0 && !seenSig[key] {
			seenSig[key] = true
			sigs = append(sigs, r.Fired)
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].cell != pairs[j].cell {
			return pairs[i].cell < pairs[j].cell
		}
		return pairs[i].cause < pairs[j].cause
	})
	sort.Slice(sigs, func(i, j int) bool { return strings.Join(sigs[i], ",") < strings.Join(sigs[j], ",") })
	buckets := []time.Duration{10 * time.Minute, time.Hour}
	var out []querySpec
	for v := 0; v < perKind; v++ {
		if len(pairs) > 0 {
			p := pairs[rng.Intn(len(pairs))]
			out = append(out, querySpec{
				kind: kindRecords,
				path: "/query?cell=" + url.QueryEscape(p.cell) + "&cause=" + url.QueryEscape(p.cause) + "&limit=100",
				q:    rcastore.Query{Cell: p.cell, Cause: p.cause, Limit: 100},
			})
		}
		k := 5 + rng.Intn(6)
		out = append(out, querySpec{
			kind: kindTopChains,
			path: fmt.Sprintf("/query?agg=top_chains&k=%d", k),
			k:    k,
		})
		bucket := buckets[rng.Intn(len(buckets))]
		path := "/query?agg=cause_rates&bucket=" + bucket.String()
		if from > 0 {
			path += fmt.Sprintf("&from=%d", int64(from))
		}
		out = append(out, querySpec{
			kind:   kindCauseRates,
			path:   path,
			q:      rcastore.Query{From: from},
			bucket: sim.Time(bucket / time.Microsecond),
		})
		if len(sigs) > 0 {
			sig := sigs[rng.Intn(len(sigs))]
			k := 3 + rng.Intn(5)
			out = append(out, querySpec{
				kind:  kindSimilar,
				path:  fmt.Sprintf("/incidents/similar?fired=%s&k=%d", url.QueryEscape(strings.Join(sig, ",")), k),
				k:     k,
				fired: sig,
			})
		}
	}
	return out
}

// inProcess runs the query against a store and returns the JSON the
// HTTP surface would carry for it.
func (qs querySpec) inProcess(st *rcastore.Store) any {
	switch qs.kind {
	case kindRecords:
		return st.Query(qs.q)
	case kindTopChains:
		return st.TopChains(qs.q, qs.k)
	case kindCauseRates:
		return st.CauseRates(qs.q, qs.bucket)
	default:
		return st.Similar(qs.fired, qs.q, qs.k)
	}
}

// canonical extracts the answer from an HTTP response body and
// re-encodes it, so it can be compared byte for byte with inProcess.
func (qs querySpec) canonical(body []byte) ([]byte, error) {
	var v any
	switch qs.kind {
	case kindRecords:
		var r struct {
			Records []rcastore.Record `json:"records"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		v = r.Records
	case kindTopChains:
		var r struct {
			TopChains []rcastore.ChainAgg `json:"top_chains"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		v = r.TopChains
	case kindCauseRates:
		var r struct {
			CauseRates []rcastore.CauseBucket `json:"cause_rates"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		v = r.CauseRates
	default:
		var r struct {
			Matches []rcastore.Match `json:"matches"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		v = r.Matches
	}
	return canonicalJSON(v)
}

// sameJSON reports whether two JSON documents are equal, numbers
// within a relative 1e-9: a merge that sums per-node float partials
// and a single store that sums per row associate the additions
// differently, so their last bits may legitimately differ.
func sameJSON(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return bytes.Equal(a, b)
	}
	return sameValue(x, y)
}

func sameValue(x, y any) bool {
	switch xv := x.(type) {
	case float64:
		yv, ok := y.(float64)
		return ok && math.Abs(xv-yv) <= 1e-9*math.Max(math.Abs(xv), math.Abs(yv))
	case []any:
		yv, ok := y.([]any)
		if !ok || len(xv) != len(yv) {
			return false
		}
		for i := range xv {
			if !sameValue(xv[i], yv[i]) {
				return false
			}
		}
		return true
	case map[string]any:
		yv, ok := y.(map[string]any)
		if !ok || len(xv) != len(yv) {
			return false
		}
		for k, v := range xv {
			if w, ok := yv[k]; !ok || !sameValue(v, w) {
				return false
			}
		}
		return true
	default:
		return x == y
	}
}

// canonicalJSON encodes v, treating an empty slice like a missing one.
func canonicalJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if bytes.Equal(b, []byte("[]")) {
		b = []byte("null")
	}
	return b, err
}

// httpGet fetches base+path and returns the body of a 200.
func httpGet(ctx context.Context, client *http.Client, base, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}
