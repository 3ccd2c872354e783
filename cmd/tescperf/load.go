package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock abstracts time for the load generators, so tests can stall a
// request deterministically and check what the stall charges later
// requests.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// loadResult is one load phase: the latency of every successful request
// (in completion order), how late each scheduled send started against
// its due time, and the request accounting.
type loadResult struct {
	lat  []time.Duration
	late []time.Duration
	// at holds scheduled requests' latencies by index (-1 for a failed
	// request), for schedules that interleave request kinds.
	at        []time.Duration
	attempted int
	failed    int
	elapsed   time.Duration
}

// qps is successful requests per second over the phase.
func (r loadResult) qps() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(len(r.lat)) / r.elapsed.Seconds()
}

// closedLoop runs workers clients that each send their next request
// only once the previous one has completed, until the deadline passes.
// Request indices come from one shared counter, so every request of the
// phase gets a distinct index (and, through it, a distinct seed). A
// request's latency runs from its send to its completion.
func closedLoop(clk clock, workers int, deadline time.Time, op func(i int) error) loadResult {
	start := clk.Now()
	var next atomic.Int64
	var mu sync.Mutex
	var res loadResult
	var last time.Time
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for clk.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				t0 := clk.Now()
				err := op(i)
				t1 := clk.Now()
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
				} else {
					res.lat = append(res.lat, t1.Sub(t0))
				}
				if t1.After(last) {
					last = t1
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = last.Sub(start)
	return res
}

// poolLoop runs a pool of conns senders for d. Before each request a
// sender takes the next scheduled request whose due time has passed —
// scheduled request i is due at start + i·period, and at most one runs
// at a time, so they run in order — and otherwise sends a background
// request. The scheduled requests are an open loop timed from their due
// time, so the wait for a free sender is charged to them, as it is to an
// application sharing a connection pool between a write schedule and
// reads; the background requests are a closed loop. Every scheduled
// request due within d is sent, even after d has passed.
func poolLoop(clk clock, conns int, start time.Time, d, period time.Duration, scheduled, background func(i int) error) (sched, bg loadResult) {
	n := int(d / period)
	deadline := start.Add(d)
	sched.at = make([]time.Duration, n)
	var mu sync.Mutex
	next, busy := 0, false
	var bgNext atomic.Int64
	var lastBG time.Time
	// take claims the next due scheduled request, if no other is in
	// flight.
	take := func(now time.Time) (int, time.Time) {
		mu.Lock()
		defer mu.Unlock()
		if busy || next >= n {
			return -1, time.Time{}
		}
		due := start.Add(time.Duration(next) * period)
		if due.After(now) {
			return -1, time.Time{}
		}
		busy = true
		next++
		return next - 1, due
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := clk.Now()
				if i, due := take(now); i >= 0 {
					err := scheduled(i)
					done := clk.Now()
					mu.Lock()
					busy = false
					sched.attempted++
					sched.late = append(sched.late, now.Sub(due))
					sched.at[i] = done.Sub(due)
					if err != nil {
						sched.failed++
						sched.at[i] = -1
					} else {
						sched.lat = append(sched.lat, done.Sub(due))
					}
					mu.Unlock()
					continue
				}
				if !now.Before(deadline) {
					mu.Lock()
					pending := next < n
					mu.Unlock()
					if !pending {
						return
					}
					clk.SleepUntil(now.Add(time.Millisecond)) // the other sender holds the schedule
					continue
				}
				i := int(bgNext.Add(1)) - 1
				err := background(i)
				done := clk.Now()
				mu.Lock()
				bg.attempted++
				if err != nil {
					bg.failed++
				} else {
					bg.lat = append(bg.lat, done.Sub(now))
				}
				if done.After(lastBG) {
					lastBG = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sched.elapsed = d
	bg.elapsed = lastBG.Sub(start)
	return sched, bg
}
