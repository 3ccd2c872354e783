//go:build !goexperiment.synctest

package cluster

// Without GOEXPERIMENT=synctest (Go 1.24 gates testing/synctest behind
// it), a bubble body runs directly on the real clock.
func bubble(f func()) { f() }
