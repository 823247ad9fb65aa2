package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one operation the load generator issued.
type sample struct {
	Index   int
	Latency time.Duration // open loop: from the due time; closed loop: from the send
	Lag     time.Duration // open loop: how late the send started against its due time
	Err     error
	Work    int // units of work the operation carried (records, queries)
}

// op performs operation i on connection slot worker and reports the
// units of work it carried.
type op func(ctx context.Context, worker, i int) (work int, err error)

// openLoop issues n operations on a fixed schedule, operation i due at
// start + i/rate, whatever the system's state: independent users. At
// most conns operations are in flight; when every slot is busy a due
// operation waits for one, and its latency still counts from its due
// time, so a stall shows in every operation it delays.
func openLoop(ctx context.Context, n int, rate float64, conns int, do op) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				work, err := do(ctx, w, i)
				out[i] = sample{Index: i, Latency: time.Since(due), Lag: sent.Sub(due), Err: err, Work: work}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop runs conns callers that each issue their next operation as
// soon as the previous one returns, until d has passed. Indices start
// at first. It returns the samples and the wall time the loop took.
func closedLoop(ctx context.Context, d time.Duration, conns, first int, do op) ([]sample, time.Duration) {
	var (
		mu   sync.Mutex
		out  []sample
		next atomic.Int64
	)
	next.Store(int64(first))
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stop) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				sent := time.Now()
				work, err := do(ctx, w, i)
				s := sample{Index: i, Latency: time.Since(sent), Err: err, Work: work}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, time.Since(start)
}

// millis converts durations to float milliseconds.
func millis(samples []sample, pick func(sample) time.Duration) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.Err == nil {
			out = append(out, float64(pick(s))/1e6)
		}
	}
	return out
}
