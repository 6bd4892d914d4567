package nqueens

import (
	"testing"

	"bots/internal/core"
)

// BenchmarkSeq times the sequential search on the medium class's
// board, the one region.coarse and region.finegrain run.
func BenchmarkSeq(b *testing.B) {
	n := classN[core.Medium]
	for i := 0; i < b.N; i++ {
		Seq(n)
	}
}
