//go:build goexperiment.synctest

package replica_test

import "testing/synctest"

// bubble runs f in a synctest bubble: time is fake and moves only when
// every goroutine in the bubble is durably blocked, and bubble returns
// only after every goroutine f started has exited.
func bubble(f func()) { synctest.Run(f) }
