package main

import (
	"math"
	"sort"
)

// tailLadder lists the candidate tail quantiles, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// beyond returns how many of n sorted samples lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest rank of quantile q among n samples. The
// epsilon keeps q*n from rounding up past an exact integer (0.999×10000).
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tailQuantile picks the highest ladder quantile that has at least ten
// samples beyond it, so a tail figure always rests on ten observations.
// It returns false when even the median has fewer than ten beyond.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := rank(len(xs), q) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile 0.5.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail reports the workload's fixed tail quantile q over xs, falling
// back down the ladder when the run produced too few samples for q to
// have ten beyond it. It returns the value and the quantile used.
func tail(xs []float64, q float64) (float64, float64) {
	if beyond(len(xs), q) < 10 {
		if fq, ok := tailQuantile(len(xs)); ok {
			q = fq
		} else {
			q = 1
		}
	}
	return quantile(xs, q), q
}

// windowed splits xs, in arrival order, into up to maxWindows windows of
// at least minWindow samples and returns the median over windows of each
// window's median and of each window's q-tail, with the tail quantile
// used. A burst of interference on a shared machine then moves one
// window's figures rather than the whole run's.
func windowed(xs []float64, q float64, maxWindows, minWindow int) (p50, tailV, usedQ float64) {
	k := min(maxWindows, len(xs)/minWindow)
	if k < 1 {
		k = 1
	}
	var mids, tails []float64
	for w := 0; w < k; w++ {
		part := append([]float64(nil), xs[w*len(xs)/k:(w+1)*len(xs)/k]...)
		mids = append(mids, median(part))
		var t float64
		t, usedQ = tail(part, q)
		tails = append(tails, t)
	}
	return median(mids), median(tails), usedQ
}
