package sort

import (
	"fmt"
	"testing"

	"bots/internal/inputs"
)

// BenchmarkSeqQuick sorts random keys at the parallel sort's leaf size
// (quickThreshold) and at 1<<16.
func BenchmarkSeqQuick(b *testing.B) {
	for _, n := range []int{quickThreshold, 1 << 16} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			src := inputs.Ints32(n, 1)
			buf := make([]int32, len(src))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				seqQuick(buf)
			}
		})
	}
}

func BenchmarkSeqMerge(b *testing.B) {
	x := inputs.Ints32(1<<15, 2)
	y := inputs.Ints32(1<<15, 3)
	seqQuick(x)
	seqQuick(y)
	dest := make([]int32, len(x)+len(y))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqMerge(x, y, dest)
	}
}

func BenchmarkInsertionSort(b *testing.B) {
	src := inputs.Ints32(insertionThreshold, 4)
	buf := make([]int32, len(src))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		insertionSort(buf)
	}
}
