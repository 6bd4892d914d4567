package uts

import (
	"testing"

	"bots/internal/core"
)

func BenchmarkSeqTraversal(b *testing.B) {
	p := classParams[core.Test]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Seq(p)
	}
}

func BenchmarkVisitWork(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= visitWork(uint64(i), 150)
	}
	sinkGuard.Store(sink)
}
