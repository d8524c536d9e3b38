package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: the same CPU-bound code
// runs up to a fifth slower or faster from one half-minute to the next,
// and slow spells last minutes, whatever the program does (a lone
// Fennel+ME2H loop, timed in 30 s windows over eight minutes, spread
// 0.17–0.19 between quartiles). The timed end-to-end metrics are
// therefore scaled to a reference machine speed: a
// fixed calibration kernel that uses none of the repository's code is
// timed in passes spread over every run, and a time is multiplied by
// calibRef / (the run's median calibration round), a rate divided by
// it. Over ten runs per workload, on a machine running 20–45% below the
// reference speed, scaling took the spreads of the timed metrics from
// 0.10–0.26 to 0.05–0.16 (README.md). Between two earlier sets the
// machine slowed by a quarter: raw setup_s medians rose 13–24%, scaled
// partition_s medians moved 4–6%.
//
// A calibration round times three kernels — a sort (branches and
// calls over a cache-resident slice), a random walk over a 32 MB table
// (cache and memory latency) and map inserts (hashing and allocation) —
// on every processor at once, and takes their geometric mean. Passes
// run only while no daemon is alive, so nothing the program leaves
// running can slow them: before every serve setup, at the end of a
// serve run, and before the first partition-batch iteration and after
// each.
const (
	calibRef      = 0.036     // seconds per round at the reference speed
	calibRounds   = 3         // rounds per pass
	calibChaseLen = 1 << 23   // uint32 entries in the walk's table (32 MB)
	calibSteps    = 1_500_000 // walk steps per round
	calibSortLen  = 1 << 18   // values sorted per round
	calibMapLen   = 200_000   // map inserts per round
)

// calibrator times calibration rounds. Its walk table lives outside
// the Go heap, so live_heap_mb does not count it.
type calibrator struct {
	mem    []byte
	table  []uint32
	rounds []float64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 4*calibChaseLen, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	c := &calibrator{mem: mem, table: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calibChaseLen)}
	x := uint32(7)
	for i := range c.table {
		x = xorshift(x)
		c.table[i] = x & (calibChaseLen - 1)
	}
	return c, nil
}

func (c *calibrator) close() {
	if c != nil && c.mem != nil {
		syscall.Munmap(c.mem)
		c.mem, c.table = nil, nil
	}
}

func xorshift(x uint32) uint32 {
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	return x
}

// pass times calibRounds rounds. A round runs the kernels on every
// processor at once, as the workloads use them all; its time is the
// geometric mean over the kernels of their mean time per processor.
func (c *calibrator) pass() {
	procs := runtime.GOMAXPROCS(0)
	for i := 0; i < calibRounds; i++ {
		per := make([][3]float64, procs)
		fns := make([]func(), procs)
		for p := range fns {
			t := &per[p]
			fns[p] = func() {
				t[0] = timed(c.sortKernel)
				t[1] = timed(c.walkKernel)
				t[2] = timed(c.mapKernel)
			}
		}
		together(fns...)
		var kernels [3]float64
		for _, t := range per {
			for k := range kernels {
				kernels[k] += t[k] / float64(procs)
			}
		}
		c.rounds = append(c.rounds, geomean(kernels[:]))
	}
}

func timed(f func() uint32) float64 {
	t := time.Now()
	sinkValue.Add(uint64(f()))
	return time.Since(t).Seconds()
}

// sinkValue keeps the kernels' results alive.
var sinkValue atomic.Uint64

func (c *calibrator) sortKernel() uint32 {
	a := make([]uint32, calibSortLen)
	x := uint32(12345)
	for i := range a {
		x = xorshift(x)
		a[i] = x
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	return a[len(a)/2]
}

func (c *calibrator) walkKernel() uint32 {
	p := uint32(1)
	for i := 0; i < calibSteps; i++ {
		p = c.table[p] ^ uint32(i)&7
	}
	return p
}

func (c *calibrator) mapKernel() uint32 {
	m := make(map[uint32]uint32)
	x := uint32(99)
	for i := 0; i < calibMapLen; i++ {
		x = xorshift(x)
		m[x] = uint32(i)
	}
	return uint32(len(m))
}

// scale is the factor that turns a time measured in this run into one
// at the reference speed: above 1 when the machine ran fast. NaN before
// the first pass.
func (c *calibrator) scale() float64 {
	if len(c.rounds) == 0 {
		return math.NaN()
	}
	return calibRef / median(c.rounds)
}

// report logs the calibration and applies it to the report's scaled
// end-to-end metrics.
func (c *calibrator) report(r *report) {
	s := c.scale()
	var passes []float64
	for i := 0; i+calibRounds <= len(c.rounds); i += calibRounds {
		passes = append(passes, 1e3*median(c.rounds[i:i+calibRounds]))
	}
	r.logf("calibration      median round %.2f ms over %d rounds, reference %.2f ms: timed metrics x %.4f; per pass %v ms", 1e3*median(c.rounds), len(c.rounds), 1e3*calibRef, s, roundAll(passes))
	r.scale = s
}
