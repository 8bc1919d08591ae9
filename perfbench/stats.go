package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation (xs is
// sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// iqMean is the interquartile mean: the mean of the middle half of xs
// (sorted in place). It ignores outliers like the median, but averages
// over the middle half, so values that fall into two modes give a figure
// between them instead of jumping from one mode to the other.
func iqMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	lo, hi := len(xs)/4, len(xs)-len(xs)/4
	var sum float64
	for _, x := range xs[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

func mean(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	var t float64
	for _, v := range ns {
		t += float64(v)
	}
	return t / float64(len(ns))
}

// nsQuantile is quantile over int64 nanosecond samples.
func nsQuantile(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return quantile(xs, q)
}

// hist is a log-linear latency histogram: 32 sub-buckets per power of two
// (relative error under 3.2%), so millions of samples cost a fixed 16 KiB.
// Not safe for concurrent use; one goroutine records, readers wait for it
// to finish.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
}

const histSub = 32

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // v in [2^exp, 2^(exp+1))
	sub := int(uint64(v)>>(exp-5)) - histSub
	return (exp-4)*histSub + sub
}

// histLow is the smallest value of bucket b.
func histLow(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	exp := b/histSub + 4
	sub := b%histSub + histSub
	return float64(uint64(sub) << (exp - 5))
}

func (h *hist) record(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the midpoint of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return (histLow(b) + histLow(b+1)) / 2
		}
	}
	return histLow(len(h.counts) - 1)
}

// cpuNow is the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memMark snapshots the allocator counters at a phase boundary.
type memMark struct {
	alloc uint64
	gcs   uint32
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC}
}

// since returns heap bytes allocated and GC cycles completed since m.
func (m memMark) since() (alloc uint64, gcs uint32) {
	now := markMem()
	return now.alloc - m.alloc, now.gcs - m.gcs
}
