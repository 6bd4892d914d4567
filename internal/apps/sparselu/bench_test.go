package sparselu

import (
	"fmt"
	"testing"

	"bots/internal/inputs"
)

// BenchmarkKernels times the four block kernels at the block sizes the
// repo's workloads run: bs=32 is the small class (region.*), bs=48
// the medium class (the dep-tied recording sim.replay sets up). Each
// iteration works on the same inputs: fwd and bdiv solve a fresh copy
// of their block, and bmod's row and col stay dense.
func BenchmarkKernels(b *testing.B) {
	for _, bs := range []int{32, 48} {
		diag := inputs.Block(bs, 0, 0, 2, inputSeed)
		lu0(diag, bs)
		row := inputs.Block(bs, 1, 0, 2, inputSeed)
		col := inputs.Block(bs, 0, 1, 2, inputSeed)
		inner := inputs.Block(bs, 1, 1, 2, inputSeed)
		buf := make([]float64, bs*bs)
		kernels := []struct {
			name string
			run  func()
		}{
			{"lu0", func() { lu0(append(buf[:0], inner...), bs) }},
			{"fwd", func() { fwd(diag, append(buf[:0], col...), bs) }},
			{"bdiv", func() { bdiv(diag, append(buf[:0], row...), bs) }},
			{"bmod", func() { bmod(row, col, inner, bs) }},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/bs=%d", k.name, bs), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}

func BenchmarkSeqFactorize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := NewMatrix(8, 32)
		Seq(m)
	}
}
