package wal

import "testing"

// BenchmarkAppend prices the log append every acknowledged edge batch
// pays before publication, once per fsync policy: one 10-flip KindEdges
// record per op, on the real filesystem. The spread between off and
// always is the price of the no-lost-acks contract on the machine's disk.
func BenchmarkAppend(b *testing.B) {
	changes := make([]EdgeChange, 10)
	for i := range changes {
		changes[i] = EdgeChange{U: i, V: 1000 + 7*i, Insert: i%2 == 0}
	}
	for _, policy := range []Policy{SyncAlways, SyncInterval, SyncOff} {
		b.Run(policy.String(), func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Options{FS: OSFS{}, Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch := uint64(i) + 2
				if err := l.Append(edgesRec("g", epoch, epoch, changes...)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(l.Fsyncs())/float64(b.N), "fsyncs/op")
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
