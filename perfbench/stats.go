package main

import (
	"math"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of xs (0 for none).
// Infinite entries stand for checks that missed the limit outright.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// calmerHalf returns the mean of the better half of xs, rounded up: the
// lower half when lower is set, else the upper half. Interference on a
// shared host only ever makes a sample worse.
func calmerHalf(xs []float64, lower bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if !lower {
		slices.Reverse(s)
	}
	return mean(s[:(len(s)+1)/2])
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// quartiles matches Python's statistics.quantiles(xs, n=4), the default
// "exclusive" method, so spread mode reads the same as a check made with
// it. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak of heap memory in use, read from
// runtime/metrics (which, unlike ReadMemStats, does not stop the world)
// every few milliseconds until stop.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	peak  uint64 // written by the sampler, read after done closes
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
