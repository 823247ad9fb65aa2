package core

import (
	"sort"

	"github.com/domino5g/domino/internal/netem"
	"github.com/domino5g/domino/internal/sim"
	"github.com/domino5g/domino/internal/trace"
)

// indexedTrace holds a trace as binary-searchable per-source series so
// window evaluation is O(window) instead of O(trace). It is built in
// one shot from a full Set (batch analysis) or grown record-by-record
// and pruned from the front (streaming analysis) — evalWindow works
// identically on both because it only ever reads the [start, end)
// slice of each series.
//
// Alongside the raw series it maintains rolling aggregates so that
// evaluating the next window position costs O(samples-in-step) for the
// count/sum/extrema-shaped event conditions instead of re-scanning the
// full window:
//
//   - cumulative count/sum arrays parallel to each series (window
//     aggregate = two array reads after the binary search);
//   - monotonic min/max deques for the argmax-before-argmin conditions
//     (events 1–2, 13), fed by per-series cursors as windows advance;
//   - per-time-bucket caches for the bin-shaped conditions (events 14
//     and 16), with bucket medians computed once per completed bucket.
//
// The cursor-fed structures assume evalWindow is called with
// non-decreasing window starts (the only access pattern batch and
// streaming analysis produce). evalWindowFull is the retained
// position-independent recompute path, pinned equal by differential
// tests.
type indexedTrace struct {
	cfg       DetectorConfig // normalized; ingest-time thresholds
	hasGNBLog bool

	// Media (forward) and RTCP (reverse) delay series, both directions
	// merged, ordered by send time.
	fwdAt    []sim.Time
	fwdDelay []float64 // ms
	revAt    []sim.Time
	revDelay []float64

	// Cumulative count of delay samples above cfg.DelayUpMs.
	fwdCumHigh []int32
	revCumHigh []int32

	// Per-direction app send rate accounting: media bytes by send time.
	appAt    [2][]sim.Time
	appBytes [2][]int

	// Per-direction DCI-derived series ordered by time.
	dciAt    [2][]sim.Time
	dciOwn   [2][]int // own-UE PRBs
	dciOther [2][]int // other-UE PRBs
	dciMCS   [2][]int
	dciTBS   [2][]int  // bits
	dciHARQ  [2][]bool // HARQ retx flag
	dciULUse [2][]bool // own transmission

	// Cumulative DCI aggregates: PRB sums, HARQ-retx and own-use counts.
	dciCumOwn   [2][]int64
	dciCumOther [2][]int64
	dciCumHARQ  [2][]int32
	dciCumULUse [2][]int32

	// RLC retx events (gNB log), per direction.
	rlcAt [2][]sim.Time

	// RNTI change times.
	rrcAt []sim.Time

	// Stats per side ordered by time.
	statsAt  [2][]sim.Time
	stats    [2][]trace.WebRTCStatsRecord
	statsCum [2]statsCums

	roll    rollState
	scratch evalScratch
}

// statsCums holds cumulative flag counts over one side's stats series:
// cum[i] counts samples (or adjacent pairs, attributed to the later
// index) matching the condition over series[0..i].
type statsCums struct {
	resDown    []int32 // pair: outbound height decreased
	drain      []int32 // jitter buffer at or below drain threshold
	overuse    []int32 // GCC overuse state
	cwndFull   []int32 // outstanding exceeds congestion window
	pushNeq    []int32 // pushback below target by the configured fraction
	targetDrop []int32 // pair: relative target-bitrate drop
	pushDrop   []int32 // pair: relative pushback-rate drop
}

// evalScratch holds reusable per-evaluation buffers.
type evalScratch struct {
	medians []float64
}

func sideIdx(local bool) int {
	if local {
		return 0
	}
	return 1
}

func dirIdx(d netem.Direction) int {
	if d == netem.Uplink {
		return 0
	}
	return 1
}

// newIndexedTrace builds the index for the given (normalized) detector
// configuration. The set must be sorted.
func newIndexedTrace(set *trace.Set, cfg DetectorConfig) *indexedTrace {
	ix := &indexedTrace{cfg: cfg, hasGNBLog: set.HasGNBLog}
	ix.roll.init(cfg)
	for _, p := range set.Packets {
		ix.addPacket(p)
	}
	ix.reserveDCI(set.DCI)
	for _, r := range set.DCI {
		ix.addDCI(r)
	}
	for _, g := range set.GNBLogs {
		ix.addGNB(g)
	}
	// Batch construction appends DCI-flagged and gNB-logged RLC retx
	// separately, so the merged series needs a sort; incremental
	// construction receives records time-merged and stays sorted.
	for i := range ix.rlcAt {
		sort.Slice(ix.rlcAt[i], func(a, b int) bool { return ix.rlcAt[i][a] < ix.rlcAt[i][b] })
	}
	for _, r := range set.RRC {
		ix.addRRC(r)
	}
	for _, s := range set.Stats {
		ix.addStats(s)
	}
	return ix
}

// reset empties every series and rolling structure in place, keeping
// the allocated capacity — the pooling path for fleet-scale reuse.
func (ix *indexedTrace) reset(hasGNBLog bool) {
	ix.hasGNBLog = hasGNBLog
	ix.fwdAt = ix.fwdAt[:0]
	ix.fwdDelay = ix.fwdDelay[:0]
	ix.fwdCumHigh = ix.fwdCumHigh[:0]
	ix.revAt = ix.revAt[:0]
	ix.revDelay = ix.revDelay[:0]
	ix.revCumHigh = ix.revCumHigh[:0]
	for di := 0; di < 2; di++ {
		ix.appAt[di] = ix.appAt[di][:0]
		ix.appBytes[di] = ix.appBytes[di][:0]
		ix.dciAt[di] = ix.dciAt[di][:0]
		ix.dciOwn[di] = ix.dciOwn[di][:0]
		ix.dciOther[di] = ix.dciOther[di][:0]
		ix.dciMCS[di] = ix.dciMCS[di][:0]
		ix.dciTBS[di] = ix.dciTBS[di][:0]
		ix.dciHARQ[di] = ix.dciHARQ[di][:0]
		ix.dciULUse[di] = ix.dciULUse[di][:0]
		ix.dciCumOwn[di] = ix.dciCumOwn[di][:0]
		ix.dciCumOther[di] = ix.dciCumOther[di][:0]
		ix.dciCumHARQ[di] = ix.dciCumHARQ[di][:0]
		ix.dciCumULUse[di] = ix.dciCumULUse[di][:0]
		ix.rlcAt[di] = ix.rlcAt[di][:0]
	}
	ix.rrcAt = ix.rrcAt[:0]
	for si := 0; si < 2; si++ {
		ix.statsAt[si] = ix.statsAt[si][:0]
		ix.stats[si] = ix.stats[si][:0]
		c := &ix.statsCum[si]
		c.resDown = c.resDown[:0]
		c.drain = c.drain[:0]
		c.overuse = c.overuse[:0]
		c.cwndFull = c.cwndFull[:0]
		c.pushNeq = c.pushNeq[:0]
		c.targetDrop = c.targetDrop[:0]
		c.pushDrop = c.pushDrop[:0]
	}
	ix.roll.reset()
}

func (ix *indexedTrace) addPacket(p trace.PacketRecord) {
	if p.Kind == netem.KindRTCP {
		d := p.Delay().Milliseconds()
		ix.revAt = append(ix.revAt, p.SentAt)
		ix.revDelay = append(ix.revDelay, d)
		ix.revCumHigh = appendCum32(ix.revCumHigh, ix.delayHigh(d))
		return
	}
	if p.Kind == netem.KindCross {
		return
	}
	di := dirIdx(p.Dir)
	d := p.Delay().Milliseconds()
	ix.fwdAt = append(ix.fwdAt, p.SentAt)
	ix.fwdDelay = append(ix.fwdDelay, d)
	ix.fwdCumHigh = appendCum32(ix.fwdCumHigh, ix.delayHigh(d))
	ix.appAt[di] = append(ix.appAt[di], p.SentAt)
	ix.appBytes[di] = append(ix.appBytes[di], p.Size)
}

// reserveDCI sizes the per-direction DCI series for the given records
// so batch construction appends without regrowing.
func (ix *indexedTrace) reserveDCI(recs []trace.DCIRecord) {
	var n [2]int
	for i := range recs {
		n[dirIdx(recs[i].Dir)]++
	}
	for di, c := range n {
		ix.dciAt[di] = make([]sim.Time, 0, c)
		ix.dciOwn[di] = make([]int, 0, c)
		ix.dciOther[di] = make([]int, 0, c)
		ix.dciMCS[di] = make([]int, 0, c)
		ix.dciTBS[di] = make([]int, 0, c)
		ix.dciHARQ[di] = make([]bool, 0, c)
		ix.dciULUse[di] = make([]bool, 0, c)
		ix.dciCumOwn[di] = make([]int64, 0, c)
		ix.dciCumOther[di] = make([]int64, 0, c)
		ix.dciCumHARQ[di] = make([]int32, 0, c)
		ix.dciCumULUse[di] = make([]int32, 0, c)
	}
}

func (ix *indexedTrace) addDCI(r trace.DCIRecord) {
	di := dirIdx(r.Dir)
	ix.dciAt[di] = append(ix.dciAt[di], r.At)
	ix.dciOwn[di] = append(ix.dciOwn[di], r.OwnPRB)
	ix.dciOther[di] = append(ix.dciOther[di], r.OtherPRB)
	ix.dciMCS[di] = append(ix.dciMCS[di], r.MCS)
	tbs := 0
	if r.OwnPRB > 0 {
		tbs = r.TBSBits
	}
	ix.dciTBS[di] = append(ix.dciTBS[di], tbs)
	ix.dciHARQ[di] = append(ix.dciHARQ[di], r.HARQRetx)
	ix.dciULUse[di] = append(ix.dciULUse[di], r.OwnPRB > 0)
	ix.dciCumOwn[di] = appendCumSum64(ix.dciCumOwn[di], int64(r.OwnPRB))
	ix.dciCumOther[di] = appendCumSum64(ix.dciCumOther[di], int64(r.OtherPRB))
	ix.dciCumHARQ[di] = appendCum32(ix.dciCumHARQ[di], r.HARQRetx)
	ix.dciCumULUse[di] = appendCum32(ix.dciCumULUse[di], r.OwnPRB > 0)
	// The DCI RLC-retx annotation is gNB-internal knowledge: only
	// private cells with base-station logs expose it (the paper's
	// commercial cells detect no RLC retx for exactly this reason).
	if r.RLCRetx && ix.hasGNBLog {
		ix.rlcAt[di] = append(ix.rlcAt[di], r.At)
	}
}

func (ix *indexedTrace) addGNB(g trace.GNBLogRecord) {
	if g.Kind == trace.GNBLogRLCRetx {
		di := dirIdx(g.Dir)
		ix.rlcAt[di] = append(ix.rlcAt[di], g.At)
	}
}

func (ix *indexedTrace) addRRC(r trace.RRCRecord) {
	ix.rrcAt = append(ix.rrcAt, r.At)
}

func (ix *indexedTrace) addStats(s trace.WebRTCStatsRecord) {
	si := sideIdx(s.Local)
	i := len(ix.stats[si])
	ix.statsAt[si] = append(ix.statsAt[si], s.At)
	ix.stats[si] = append(ix.stats[si], s)
	ix.appendStatsCums(si, i)
}

// statsFlagSet holds one stats record's per-sample condition flags —
// the single definition both the append path and the out-of-order
// rebuild path count from.
type statsFlagSet struct {
	resDown, drain, overuse, cwndFull, pushNeq, targetDrop, pushDrop bool
}

// statsFlags evaluates the flag conditions for record r with (possibly
// nil) predecessor p; pair conditions are attributed to the later
// record.
func (ix *indexedTrace) statsFlags(r, p *trace.WebRTCStatsRecord) statsFlagSet {
	cfg := &ix.cfg
	return statsFlagSet{
		resDown:    p != nil && r.OutboundHeight < p.OutboundHeight,
		drain:      r.VideoJBDelayMs <= cfg.JBDrainMs,
		overuse:    r.GCCNetState == trace.GCCOveruse,
		cwndFull:   r.CongestionWindow > 0 && r.OutstandingBytes > r.CongestionWindow,
		pushNeq:    r.PushbackRateBps < r.TargetBitrateBps*(1-cfg.PushbackNeqFrac),
		targetDrop: p != nil && p.TargetBitrateBps > 0 && r.TargetBitrateBps < p.TargetBitrateBps*(1-cfg.RelDrop),
		pushDrop:   p != nil && p.PushbackRateBps > 0 && r.PushbackRateBps < p.PushbackRateBps*(1-cfg.RelDrop),
	}
}

// delayHigh is the event 11–12 threshold flag, shared between the
// append path and the out-of-order rebuild path.
func (ix *indexedTrace) delayHigh(d float64) bool { return d > ix.cfg.DelayUpMs }

// appendStatsCums extends side si's cumulative flag counts for the
// record at index i (which must be the last one).
func (ix *indexedTrace) appendStatsCums(si, i int) {
	c := &ix.statsCum[si]
	var p *trace.WebRTCStatsRecord
	if i > 0 {
		p = &ix.stats[si][i-1]
	}
	f := ix.statsFlags(&ix.stats[si][i], p)
	c.resDown = appendCum32(c.resDown, f.resDown)
	c.drain = appendCum32(c.drain, f.drain)
	c.overuse = appendCum32(c.overuse, f.overuse)
	c.cwndFull = appendCum32(c.cwndFull, f.cwndFull)
	c.pushNeq = appendCum32(c.pushNeq, f.pushNeq)
	c.targetDrop = appendCum32(c.targetDrop, f.targetDrop)
	c.pushDrop = appendCum32(c.pushDrop, f.pushDrop)
}

// appendCum32 extends a cumulative count array by one flag.
func appendCum32(cum []int32, flag bool) []int32 {
	var prev int32
	if n := len(cum); n > 0 {
		prev = cum[n-1]
	}
	if flag {
		prev++
	}
	return append(cum, prev)
}

// appendCumSum64 extends a cumulative sum array by one value.
func appendCumSum64(cum []int64, v int64) []int64 {
	var prev int64
	if n := len(cum); n > 0 {
		prev = cum[n-1]
	}
	return append(cum, prev+v)
}

// cum32 returns the flag count over series indices [lo, hi).
func cum32(cum []int32, lo, hi int) int {
	if hi <= lo {
		return 0
	}
	v := cum[hi-1]
	if lo > 0 {
		v -= cum[lo-1]
	}
	return int(v)
}

// cum64 returns the value sum over series indices [lo, hi).
func cum64(cum []int64, lo, hi int) int64 {
	if hi <= lo {
		return 0
	}
	v := cum[hi-1]
	if lo > 0 {
		v -= cum[lo-1]
	}
	return v
}

// evictBefore drops every sample with timestamp < cut, compacting each
// series in place so the backing arrays stay sized to the window
// high-water mark instead of growing with the trace. Cumulative arrays
// are rebased and the rolling cursors shifted alongside.
func (ix *indexedTrace) evictBefore(cut sim.Time) {
	lo := cutIndex(ix.fwdAt, cut)
	ix.fwdAt = shiftS(ix.fwdAt, lo)
	ix.fwdDelay = shiftS(ix.fwdDelay, lo)
	ix.fwdCumHigh = shiftCum32(ix.fwdCumHigh, lo)

	lo = cutIndex(ix.revAt, cut)
	ix.revAt = shiftS(ix.revAt, lo)
	ix.revDelay = shiftS(ix.revDelay, lo)
	ix.revCumHigh = shiftCum32(ix.revCumHigh, lo)

	for di := 0; di < 2; di++ {
		lo = cutIndex(ix.appAt[di], cut)
		ix.appAt[di] = shiftS(ix.appAt[di], lo)
		ix.appBytes[di] = shiftS(ix.appBytes[di], lo)
		ix.roll.appCur[di] = cursorShift(ix.roll.appCur[di], lo)

		lo = cutIndex(ix.dciAt[di], cut)
		ix.dciAt[di] = shiftS(ix.dciAt[di], lo)
		ix.dciOwn[di] = shiftS(ix.dciOwn[di], lo)
		ix.dciOther[di] = shiftS(ix.dciOther[di], lo)
		ix.dciMCS[di] = shiftS(ix.dciMCS[di], lo)
		ix.dciTBS[di] = shiftS(ix.dciTBS[di], lo)
		ix.dciHARQ[di] = shiftS(ix.dciHARQ[di], lo)
		ix.dciULUse[di] = shiftS(ix.dciULUse[di], lo)
		ix.dciCumOwn[di] = shiftCum64(ix.dciCumOwn[di], lo)
		ix.dciCumOther[di] = shiftCum64(ix.dciCumOther[di], lo)
		ix.dciCumHARQ[di] = shiftCum32(ix.dciCumHARQ[di], lo)
		ix.dciCumULUse[di] = shiftCum32(ix.dciCumULUse[di], lo)
		ix.roll.dciCur[di] = cursorShift(ix.roll.dciCur[di], lo)

		lo = cutIndex(ix.rlcAt[di], cut)
		ix.rlcAt[di] = shiftS(ix.rlcAt[di], lo)
	}

	lo = cutIndex(ix.rrcAt, cut)
	ix.rrcAt = shiftS(ix.rrcAt, lo)

	for si := 0; si < 2; si++ {
		lo = cutIndex(ix.statsAt[si], cut)
		ix.statsAt[si] = shiftS(ix.statsAt[si], lo)
		ix.stats[si] = shiftS(ix.stats[si], lo)
		c := &ix.statsCum[si]
		c.resDown = shiftCum32(c.resDown, lo)
		c.drain = shiftCum32(c.drain, lo)
		c.overuse = shiftCum32(c.overuse, lo)
		c.cwndFull = shiftCum32(c.cwndFull, lo)
		c.pushNeq = shiftCum32(c.pushNeq, lo)
		c.targetDrop = shiftCum32(c.targetDrop, lo)
		c.pushDrop = shiftCum32(c.pushDrop, lo)
		ix.roll.statsCur[si] = cursorShift(ix.roll.statsCur[si], lo)
	}
}

// cutIndex returns the number of leading samples with timestamp < cut.
func cutIndex(at []sim.Time, cut sim.Time) int {
	return sort.Search(len(at), func(i int) bool { return at[i] >= cut })
}

// shiftS drops the first lo elements of a series in place.
func shiftS[T any](s []T, lo int) []T {
	if lo == 0 {
		return s
	}
	n := copy(s, s[lo:])
	return s[:n]
}

// shiftCum32 drops the first lo entries of a cumulative array, rebasing
// the remainder so cum[i] again aggregates from the new first sample.
// The flag of a former pair condition at the new index 0 may reference
// an evicted predecessor; window queries only ever read pairs from
// index lo+1 on, so the stale contribution cancels out of every range.
func shiftCum32(cum []int32, lo int) []int32 {
	if lo == 0 {
		return cum
	}
	base := cum[lo-1]
	n := copy(cum, cum[lo:])
	cum = cum[:n]
	for i := range cum {
		cum[i] -= base
	}
	return cum
}

func shiftCum64(cum []int64, lo int) []int64 {
	if lo == 0 {
		return cum
	}
	base := cum[lo-1]
	n := copy(cum, cum[lo:])
	cum = cum[:n]
	for i := range cum {
		cum[i] -= base
	}
	return cum
}

// cursorShift moves a rolling consume cursor left with its series.
// Every evicted sample was already consumed (eviction cuts below the
// last evaluated window end), so the cursor never goes negative on the
// analysis paths; the clamp keeps a stray early eviction harmless.
func cursorShift(cur, lo int) int {
	if cur < lo {
		return 0
	}
	return cur - lo
}

// bubbleLast restores sortedness after one sample was appended to a
// time series, swapping the parallel value arrays alongside and
// returning the insertion position. The walk is O(displacement), which
// a streaming caller bounds by its lateness slack; for in-order input
// it is a single comparison.
func bubbleLast(at []sim.Time, swap func(i, j int)) int {
	i := len(at) - 1
	for ; i > 0 && at[i] < at[i-1]; i-- {
		at[i], at[i-1] = at[i-1], at[i]
		if swap != nil {
			swap(i, i-1)
		}
	}
	return i
}

// restoreOrderPacket re-sorts the tail of the packet-derived series
// after an out-of-order (but within-lateness) streamed packet and
// repairs the cumulative arrays from the insertion point.
func (ix *indexedTrace) restoreOrderPacket(p trace.PacketRecord) {
	if p.Kind == netem.KindRTCP {
		pos := bubbleLast(ix.revAt, func(i, j int) {
			ix.revDelay[i], ix.revDelay[j] = ix.revDelay[j], ix.revDelay[i]
		})
		ix.rebuildDelayCum(ix.revDelay, ix.revCumHigh, pos)
		return
	}
	if p.Kind == netem.KindCross {
		return
	}
	di := dirIdx(p.Dir)
	pos := bubbleLast(ix.fwdAt, func(i, j int) {
		ix.fwdDelay[i], ix.fwdDelay[j] = ix.fwdDelay[j], ix.fwdDelay[i]
	})
	ix.rebuildDelayCum(ix.fwdDelay, ix.fwdCumHigh, pos)
	bubbleLast(ix.appAt[di], func(i, j int) {
		ix.appBytes[di][i], ix.appBytes[di][j] = ix.appBytes[di][j], ix.appBytes[di][i]
	})
}

// rebuildDelayCum recomputes a delay threshold-count array from pos on.
func (ix *indexedTrace) rebuildDelayCum(delay []float64, cum []int32, pos int) {
	if pos == len(delay)-1 {
		return // appended in order; already extended by addPacket
	}
	var prev int32
	if pos > 0 {
		prev = cum[pos-1]
	}
	for i := pos; i < len(delay); i++ {
		if ix.delayHigh(delay[i]) {
			prev++
		}
		cum[i] = prev
	}
}

// restoreOrderDCI re-sorts the tail of the DCI-derived series.
func (ix *indexedTrace) restoreOrderDCI(r trace.DCIRecord) {
	di := dirIdx(r.Dir)
	pos := bubbleLast(ix.dciAt[di], func(i, j int) {
		ix.dciOwn[di][i], ix.dciOwn[di][j] = ix.dciOwn[di][j], ix.dciOwn[di][i]
		ix.dciOther[di][i], ix.dciOther[di][j] = ix.dciOther[di][j], ix.dciOther[di][i]
		ix.dciMCS[di][i], ix.dciMCS[di][j] = ix.dciMCS[di][j], ix.dciMCS[di][i]
		ix.dciTBS[di][i], ix.dciTBS[di][j] = ix.dciTBS[di][j], ix.dciTBS[di][i]
		ix.dciHARQ[di][i], ix.dciHARQ[di][j] = ix.dciHARQ[di][j], ix.dciHARQ[di][i]
		ix.dciULUse[di][i], ix.dciULUse[di][j] = ix.dciULUse[di][j], ix.dciULUse[di][i]
	})
	if pos != len(ix.dciAt[di])-1 {
		ix.rebuildDCICums(di, pos)
	}
	bubbleLast(ix.rlcAt[di], nil)
}

// rebuildDCICums recomputes direction di's cumulative arrays from pos.
func (ix *indexedTrace) rebuildDCICums(di, pos int) {
	var pOwn, pOther int64
	var pHARQ, pUse int32
	if pos > 0 {
		pOwn = ix.dciCumOwn[di][pos-1]
		pOther = ix.dciCumOther[di][pos-1]
		pHARQ = ix.dciCumHARQ[di][pos-1]
		pUse = ix.dciCumULUse[di][pos-1]
	}
	for i := pos; i < len(ix.dciAt[di]); i++ {
		pOwn += int64(ix.dciOwn[di][i])
		pOther += int64(ix.dciOther[di][i])
		if ix.dciHARQ[di][i] {
			pHARQ++
		}
		if ix.dciULUse[di][i] {
			pUse++
		}
		ix.dciCumOwn[di][i] = pOwn
		ix.dciCumOther[di][i] = pOther
		ix.dciCumHARQ[di][i] = pHARQ
		ix.dciCumULUse[di][i] = pUse
	}
}

// restoreOrderGNB re-sorts the tail of the RLC-retx series.
func (ix *indexedTrace) restoreOrderGNB(g trace.GNBLogRecord) {
	if g.Kind == trace.GNBLogRLCRetx {
		bubbleLast(ix.rlcAt[dirIdx(g.Dir)], nil)
	}
}

// restoreOrderRRC re-sorts the tail of the RRC series.
func (ix *indexedTrace) restoreOrderRRC() { bubbleLast(ix.rrcAt, nil) }

// restoreOrderStats re-sorts the tail of one side's stats series.
func (ix *indexedTrace) restoreOrderStats(s trace.WebRTCStatsRecord) {
	si := sideIdx(s.Local)
	pos := bubbleLast(ix.statsAt[si], func(i, j int) {
		ix.stats[si][i], ix.stats[si][j] = ix.stats[si][j], ix.stats[si][i]
	})
	if pos != len(ix.statsAt[si])-1 {
		ix.rebuildStatsCums(si, pos)
	}
}

// rebuildStatsCums recomputes side si's cumulative flag counts from
// pos on (an insertion at pos also changes the pair flag at pos+1).
func (ix *indexedTrace) rebuildStatsCums(si, pos int) {
	c := &ix.statsCum[si]
	var resDown, drain, overuse, cwndFull, pushNeq, targetDrop, pushDrop int32
	if pos > 0 {
		resDown = c.resDown[pos-1]
		drain = c.drain[pos-1]
		overuse = c.overuse[pos-1]
		cwndFull = c.cwndFull[pos-1]
		pushNeq = c.pushNeq[pos-1]
		targetDrop = c.targetDrop[pos-1]
		pushDrop = c.pushDrop[pos-1]
	}
	for i := pos; i < len(ix.stats[si]); i++ {
		var p *trace.WebRTCStatsRecord
		if i > 0 {
			p = &ix.stats[si][i-1]
		}
		f := ix.statsFlags(&ix.stats[si][i], p)
		if f.resDown {
			resDown++
		}
		if f.drain {
			drain++
		}
		if f.overuse {
			overuse++
		}
		if f.cwndFull {
			cwndFull++
		}
		if f.pushNeq {
			pushNeq++
		}
		if f.targetDrop {
			targetDrop++
		}
		if f.pushDrop {
			pushDrop++
		}
		c.resDown[i] = resDown
		c.drain[i] = drain
		c.overuse[i] = overuse
		c.cwndFull[i] = cwndFull
		c.pushNeq[i] = pushNeq
		c.targetDrop[i] = targetDrop
		c.pushDrop[i] = pushDrop
	}
}

// buffered returns the number of samples currently held across all
// series — the streaming analyzer's O(window) state measure.
func (ix *indexedTrace) buffered() int {
	n := len(ix.fwdAt) + len(ix.revAt) + len(ix.rrcAt)
	for di := range ix.dciAt {
		n += len(ix.dciAt[di]) + len(ix.rlcAt[di])
	}
	for si := range ix.statsAt {
		n += len(ix.statsAt[si])
	}
	return n
}

// window returns [lo, hi) index bounds of at-values within [start, end).
func window(at []sim.Time, start, end sim.Time) (int, int) {
	lo := sort.Search(len(at), func(i int) bool { return at[i] >= start })
	hi := sort.Search(len(at), func(i int) bool { return at[i] >= end })
	return lo, hi
}
