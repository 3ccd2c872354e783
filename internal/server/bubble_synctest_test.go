//go:build goexperiment.synctest

package server

import (
	"testing/synctest"
	"time"
)

// inBubble reports whether bubble runs its body on a fake clock. Only
// then may a test assert an outcome that time drives, such as a
// debounced checkpoint or re-screen having fired.
const inBubble = true

// bubble runs f in a synctest bubble: time is fake and moves only when
// every goroutine in the bubble is durably blocked, and bubble returns
// only after every goroutine f started has exited. Goroutine
// interleavings stay the scheduler's.
func bubble(f func()) { synctest.Run(f) }

// advance lets d of fake time pass, then waits until every goroutine in
// the bubble is durably blocked.
func advance(d time.Duration) {
	time.Sleep(d)
	synctest.Wait()
}
