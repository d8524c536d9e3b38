package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to be trusted: a p99 from 300 samples rests on three values,
// so it is not reported.
const minBeyond = 10

// dist is a latency distribution: samples in milliseconds, failed
// operations counted as +Inf so they land beyond every percentile.
type dist struct {
	samples []float64
	sorted  bool
}

func (d *dist) add(ms float64) { d.samples = append(d.samples, ms); d.sorted = false }

func (d *dist) addFailed() { d.add(math.Inf(1)) }

func (d *dist) n() int { return len(d.samples) }

func (d *dist) sort() []float64 {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
	return d.samples
}

// percentile returns the nearest-rank q-th percentile (0 < q < 100)
// and whether at least minBeyond samples lie above it. A value that is
// +Inf (failures dominate) is reported as not ok.
func (d *dist) percentile(q float64) (float64, bool) {
	s := d.sort()
	n := len(s)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	v := s[rank-1]
	return v, n-rank >= minBeyond && !math.IsInf(v, 1)
}

// median returns the middle sample; unlike a tail it needs no samples
// beyond it, only a finite value.
func (d *dist) median() (float64, bool) {
	s := d.sort()
	if len(s) == 0 {
		return 0, false
	}
	v := s[(len(s)-1)/2]
	return v, !math.IsInf(v, 1)
}

// tail returns the highest percentile, capped at 99, that still has
// minBeyond samples above it, with its value. ok is false below
// minBeyond+1 samples.
func (d *dist) tail() (pct, v float64, ok bool) {
	n := d.n()
	if n <= minBeyond {
		return 0, 0, false
	}
	pct = math.Min(99, math.Floor(100*float64(n-minBeyond)/float64(n)))
	v, ok = d.percentile(pct)
	return pct, v, ok
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// counts tallies attempted and failed operations; failedShare is their
// ratio. A 429 refusal counts as a failure like a transport error.
type counts struct {
	attempted, failed int
}

func (c *counts) record(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

func (c counts) failedShare() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// algoDists keeps one latency distribution per algorithm.
type algoDists map[string]*dist

func (a *algoDists) add(algo string, ms float64) {
	if *a == nil {
		*a = algoDists{}
	}
	if (*a)[algo] == nil {
		(*a)[algo] = &dist{}
	}
	(*a)[algo].add(ms)
}

// geomeanMedian is the geometric mean over the five algorithms of each
// one's median latency. Unlike the median of the pooled mix it does not
// jump between algorithms' latency clusters when the mix's middle falls
// between two of them.
func (a algoDists) geomeanMedian() (float64, bool) {
	var meds []float64
	for _, name := range algoNames {
		d := a[name]
		if d == nil {
			return 0, false
		}
		m, ok := d.median()
		if !ok {
			return 0, false
		}
		meds = append(meds, m)
	}
	return geomean(meds), true
}
