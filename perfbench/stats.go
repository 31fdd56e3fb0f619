package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// samples is a list of measurements (milliseconds unless noted).
type samples []float64

// quantile returns the q-quantile by linear interpolation between the
// closest ranks; 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

// sum returns the total of the samples.
func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocMeter accumulates runtime.MemStats deltas around timed operations
// only, so workload generation and checks between them are excluded.
type allocMeter struct {
	ops     int
	mallocs uint64
	bytes   uint64
	before  runtime.MemStats
}

func (a *allocMeter) start() { runtime.ReadMemStats(&a.before) }

func (a *allocMeter) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	a.ops++
	a.mallocs += after.Mallocs - a.before.Mallocs
	a.bytes += after.TotalAlloc - a.before.TotalAlloc
}

// perOp returns allocated megabytes and allocation count per timed op.
func (a *allocMeter) perOp() (mb, allocs float64) {
	if a.ops == 0 {
		return 0, 0
	}
	return float64(a.bytes) / 1e6 / float64(a.ops), float64(a.mallocs) / float64(a.ops)
}

// heapPeak samples the live Go heap (runtime/metrics, no stop-the-world)
// on a short period while the timed loop runs and keeps the maximum.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapPeak(period time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapObjects}}
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in megabytes.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}
