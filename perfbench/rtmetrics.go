package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

const (
	mHeapLive  = "/gc/heap/live:bytes"
	mAllocs    = "/gc/heap/allocs:bytes"
	mGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU  = "/cpu/classes/total:cpu-seconds"
	mSchedLats = "/sched/latencies:seconds"
)

// rtSample is one reading of the runtime counters the benchmark uses.
type rtSample struct {
	allocs        uint64
	gcCPU, allCPU float64
	sched         *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mSchedLats}}
	metrics.Read(s)
	return rtSample{
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		allCPU: s[2].Value.Float64(),
		sched:  s[3].Value.Float64Histogram(),
	}
}

// gcShare is the share of CPU time the garbage collector took between
// two readings.
func gcShare(a, b rtSample) float64 {
	if b.allCPU <= a.allCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.allCPU - a.allCPU)
}

// schedP99 is the 99th percentile of goroutine scheduling latency
// between two readings, in milliseconds (the upper edge of its bucket).
func schedP99(a, b rtSample) float64 {
	var total uint64
	counts := make([]uint64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	want := (total*99 + 99) / 100
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			return b.sched.Buckets[i+1] * 1e3
		}
	}
	return b.sched.Buckets[len(b.sched.Buckets)-1] * 1e3
}

// heapWatch samples the live heap (as of the last GC) until stopped.
type heapWatch struct {
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	samples []float64
}

func watchHeap(every time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: mHeapLive}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the median live heap in MB. The
// median, not the peak: the peak is one GC cycle's luck, landing on an
// epoch publish or not, and moves by a fifth from run to run.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.samples) / 1e6
}
