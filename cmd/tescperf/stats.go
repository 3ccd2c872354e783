package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs: the
// smallest sample with at least p·len(xs) samples at or below it. It
// never interpolates, so a reported p99 is a latency some request
// actually saw. xs need not be sorted; it is not modified. Empty input
// yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// sliceQuantiles cuts lat, in completion order, into n consecutive
// slices of equal count and returns each slice's p-quantile; with fewer
// samples than slices it returns the whole run's p-quantile alone.
func sliceQuantiles(lat []float64, n int, p float64) []float64 {
	size := len(lat) / n
	if size == 0 {
		return []float64{percentile(lat, p)}
	}
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = percentile(lat[i*size:(i+1)*size], p)
	}
	return qs
}

// typical is the median latency the benchmark reports: the mean, over
// twenty consecutive slices of the run, of each slice's median. The
// shared host alternates, every few seconds, between a fast and a slow
// state about 40% apart; a whole run's median then jumps between the two
// as their shares cross one half, while this figure moves in proportion
// to the shares (and a change that slows every request moves it fully).
func typical(lat []float64) float64 { return mean(sliceQuantiles(lat, 20, 0.5)) }

// tail is the tail latency the benchmark reports: the median of ten
// consecutive slices' p-quantiles. A burst of host noise that slows a
// slice or two of a run — which on a shared host moves a whole run's p99
// by a third — moves this figure little, while a change that slows the
// tail throughout moves it fully.
func tail(lat []float64, p float64) float64 { return median(sliceQuantiles(lat, 10, p)) }

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median is the middle sample (the mean of the two middle ones for an
// even count), the same definition Python's statistics.median uses.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so repeat-mode spreads match the acceptance
// arithmetic run over the same values (with very few samples the method
// extrapolates past the extremes, as Python's does). A single sample
// yields itself twice.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	const n = 4
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure a metric's regression bound must exceed.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msAll converts durations to fractional milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// sampleRSS samples the process's resident set (VmRSS) every 100 ms
// until stop is called; stop returns the median in megabytes. The
// median resident set of a steady workload barely moves from run to
// run, where the peak (VmHWM) depends on when the garbage collector
// happened to run.
func sampleRSS() (stop func() float64) {
	quit := make(chan struct{})
	done := make(chan struct{})
	var samples []float64
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, ok := residentMB(); ok {
				samples = append(samples, mb)
			}
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		return median(samples)
	}
}

// residentMB reads VmRSS from /proc/self/status.
func residentMB() (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			fields := strings.Fields(v)
			if len(fields) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}
