//go:build !goexperiment.synctest

package server

import "time"

// Without GOEXPERIMENT=synctest (Go 1.24 gates testing/synctest behind
// it), bubble bodies run directly on the real clock, and advance does
// not wait: time-driven outcomes are asserted only when inBubble.
const inBubble = false

func bubble(f func()) { f() }

func advance(time.Duration) {}
