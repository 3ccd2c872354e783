package main

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock only moves when a request "runs" (advance) or a sender
// sleeps towards a due time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func msList(xs ...int) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x) * time.Millisecond
	}
	return out
}

// A stalled request must charge its successors: with one sender and
// writes due every 10 ms, a 45 ms stall delays the next four sends, and
// their latencies run from their due times, not their send times.
func TestPoolLoopChargesStallToSuccessors(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	sched, bg := poolLoop(clk, 1, clk.Now(), 50*time.Millisecond, 10*time.Millisecond, func(i int) error {
		if i == 0 {
			clk.advance(45 * time.Millisecond)
		} else {
			clk.advance(time.Millisecond)
		}
		return nil
	}, func(int) error {
		clk.advance(time.Millisecond)
		return nil
	})
	if want := msList(45, 36, 27, 18, 9); !reflect.DeepEqual(sched.lat, want) {
		t.Errorf("latencies = %v, want %v", sched.lat, want)
	}
	if want := msList(0, 35, 26, 17, 8); !reflect.DeepEqual(sched.late, want) {
		t.Errorf("send lateness = %v, want %v", sched.late, want)
	}
	if sched.attempted != 5 || sched.failed != 0 || bg.attempted != 1 {
		t.Errorf("scheduled attempted/failed = %d/%d, background = %d; want 5/0, 1", sched.attempted, sched.failed, bg.attempted)
	}
}

// Background requests fill the gaps between scheduled ones; a scheduled
// request that falls due during a background request waits for it, and
// the wait is charged to the scheduled request.
func TestPoolLoopBackgroundFillsGaps(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	sched, bg := poolLoop(clk, 1, clk.Now(), 30*time.Millisecond, 10*time.Millisecond, func(int) error {
		clk.advance(time.Millisecond)
		return nil
	}, func(int) error {
		clk.advance(4 * time.Millisecond)
		return nil
	})
	if want := msList(1, 4, 3); !reflect.DeepEqual(sched.lat, want) {
		t.Errorf("scheduled latencies = %v, want %v", sched.lat, want)
	}
	if want := msList(0, 3, 2); !reflect.DeepEqual(sched.late, want) {
		t.Errorf("send lateness = %v, want %v", sched.late, want)
	}
	if want := msList(4, 4, 4, 4, 4, 4, 4); !reflect.DeepEqual(bg.lat, want) {
		t.Errorf("background latencies = %v, want %v", bg.lat, want)
	}
	if bg.elapsed != 31*time.Millisecond {
		t.Errorf("background elapsed = %v, want 31ms", bg.elapsed)
	}
}

func TestPoolLoopFailuresByIndex(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	sched, _ := poolLoop(clk, 1, clk.Now(), 30*time.Millisecond, 10*time.Millisecond, func(i int) error {
		clk.advance(time.Millisecond)
		if i == 1 {
			return errors.New("refused")
		}
		return nil
	}, func(int) error {
		clk.advance(time.Millisecond)
		return nil
	})
	if sched.failed != 1 || len(sched.lat) != 2 {
		t.Fatalf("failed=%d successes=%d, want 1 and 2", sched.failed, len(sched.lat))
	}
	if want := []time.Duration{time.Millisecond, -1, time.Millisecond}; !reflect.DeepEqual(sched.at, want) {
		t.Errorf("per-index latencies = %v, want %v", sched.at, want)
	}
}

// A closed loop sends back to back until the deadline and times each
// request from its own send.
func TestClosedLoopUntilDeadline(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	var seen []int
	res := closedLoop(clk, 1, clk.Now().Add(10*time.Millisecond), func(i int) error {
		seen = append(seen, i)
		clk.advance(3 * time.Millisecond)
		return nil
	})
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(seen, want) {
		t.Errorf("request indices = %v, want %v", seen, want)
	}
	if want := msList(3, 3, 3, 3); !reflect.DeepEqual(res.lat, want) {
		t.Errorf("latencies = %v, want %v", res.lat, want)
	}
	if got := res.qps(); got != 4/0.012 {
		t.Errorf("qps = %v, want %v", got, 4/0.012)
	}
}
