package fft

import (
	"fmt"
	"testing"

	"bots/internal/inputs"
)

// BenchmarkSeqFFT times Seq at 1K and 16K points, which never
// unshuffle, and at 512K, the medium class, which unshuffles seven
// levels deep and is bound by memory.
func BenchmarkSeqFFT(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14, 1 << 19} {
		src := inputs.ComplexVector(n, 1)
		b.Run(fmt.Sprintf("%dK", n>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Seq(src)
			}
		})
	}
}
