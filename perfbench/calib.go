package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The benchmark's hosts are vCPUs of shared machines whose speed drifts
// with the neighbours' load: back-to-back -workers 1 batches of the
// same artifacts took 3.5–5.6 s within two minutes, and the fleet's
// closed-loop rate ranged 3.2M–5.0M records/s over five seeds. A fixed
// CPU kernel timed between the pieces of work slowed and sped up with
// them. CPU time does not help: Linux charges the cycles of a slowed
// vCPU to the program all the same, and records per CPU second spread
// as much as records per wall second.
//
// So the timed figures are counted in reference seconds. A run times
// the kernel between its pieces of work (batches, open-loop windows,
// closed-loop segments), and a piece's reference second is the mean of
// the calibration points just before and just after it: the host can
// slow twofold within one run, so a point far from the piece says
// little about it. Over ten paper-batch runs in a slow stretch, this
// cut the spread (IQR/median) of artifacts per second from 0.28 to
// 0.07; the run's median point instead left 0.11. The kernel is the
// benchmark's own code, so a change to the programs under test moves a
// figure as it moves the wall-clock figure, while a slow stretch of the
// host moves the work and the kernel together.

// kernelKeys is the size of one chunk's working set (keys to sort and
// hash, 512 KiB, and a 1 MiB table): within a core's L2, as most of the
// programs' hot data is.
const (
	kernelKeys      = 1 << 16
	refSecondChunks = 110 // chunks per reference second; about 1 s on the reference 2-vCPU Xeon
	calibChunks     = 36  // chunks timed per calibration point, about 0.3 s
)

// kernelBuf is one worker's preallocated working set: the kernel
// allocates nothing, so it runs no garbage collection and its time does
// not depend on the benchmark's heap.
type kernelBuf struct {
	keys  []uint64
	table []uint64
	seed  uint64
}

// chunk sorts kernelKeys pseudo-random keys, counts them in an
// open-addressing table and folds them through float math: the sort,
// hash and float mix of the analyzers. The result keeps the work live.
func (k *kernelBuf) chunk() float64 {
	x := k.seed
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys[i] = x % 1_000_003
	}
	slices.Sort(k.keys)
	clear(k.table)
	mask := uint64(len(k.table) - 1)
	for _, v := range k.keys {
		h := (v * 0x9e3779b97f4a7c15) & mask
		for k.table[h] != 0 && k.table[h] != v+1 {
			h = (h + 1) & mask
		}
		k.table[h] = v + 1
	}
	sum := 0.0
	for i, v := range k.keys {
		sum += math.Sqrt(float64(v)) * float64(k.table[uint64(i)&mask]&7)
	}
	return sum
}

// calibrator times the kernel on one goroutine per vCPU, as loaded as
// the closed-loop phases keep the host, and keeps the run's points.
type calibrator struct {
	bufs   []*kernelBuf
	points []float64 // wall seconds per reference second, in the order taken
	host0  []int64   // /proc/stat cpu ticks at the first point
	sink   float64
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{}
	for w := 0; w < workers; w++ {
		c.bufs = append(c.bufs, &kernelBuf{
			keys:  make([]uint64, kernelKeys),
			table: make([]uint64, 2*kernelKeys),
			seed:  0x9e3779b97f4a7c15 ^ uint64(w+1),
		})
	}
	c.time() // fault the buffers in
	return c
}

// mark takes one calibration point.
func (c *calibrator) mark() {
	if c.host0 == nil {
		c.host0 = hostTicks()
	}
	c.points = append(c.points, c.time().Seconds())
}

// hostNote describes the vCPUs' time since the first point: the share
// the hypervisor stole and the share idle waiting on I/O, in percent.
func (c *calibrator) hostNote() string {
	now := hostTicks()
	if len(c.host0) < 8 || len(now) < 8 {
		return "unknown"
	}
	var total int64
	d := make([]int64, 8)
	for i := range d {
		d[i] = now[i] - c.host0[i]
		total += d[i]
	}
	if total <= 0 {
		return "unknown"
	}
	// /proc/stat cpu: user nice system idle iowait irq softirq steal.
	return fmt.Sprintf("steal %.1f%%, iowait %.1f%%", 100*float64(d[7])/float64(total), 100*float64(d[4])/float64(total))
}

// hostTicks reads the first line of /proc/stat: all vCPUs' ticks by
// state. It returns nil if the file cannot be read.
func hostTicks() []int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil
	}
	var out []int64
	for _, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// around is the reference second, in wall seconds, of piece i: the
// mean of the points just before and just after it, i and i+1.
func (c *calibrator) around(i int) float64 {
	return (c.points[i] + c.points[i+1]) / 2
}

// time returns how long one reference second of work takes on the host
// now: calibChunks chunks on every worker at once, scaled to
// refSecondChunks.
func (c *calibrator) time() time.Duration {
	var wg sync.WaitGroup
	sums := make([]float64, len(c.bufs))
	t0 := time.Now()
	for w, k := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calibChunks; i++ {
				sums[w] += k.chunk()
			}
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sums {
		c.sink += s
	}
	return d * refSecondChunks / calibChunks
}
