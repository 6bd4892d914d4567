package health

import (
	"testing"

	"bots/internal/core"
)

// BenchmarkSimulation measures a complete test-class simulation (the
// one a serve.open request runs) on a fresh hierarchy per iteration.
// (Benchmarking repeated steps on one tree would not be stationary:
// patient queues grow with simulated time, so per-step cost rises
// across iterations.)
func BenchmarkSimulation(b *testing.B) {
	b.ReportAllocs()
	p := classParams[core.Test]
	for i := 0; i < b.N; i++ {
		v := Build(p)
		for s := 0; s < p.steps; s++ {
			seqSim(v)
		}
	}
}

func BenchmarkBuildHierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(classParams[core.Small])
	}
}
