package health

import (
	"testing"

	"bots/internal/core"
)

// BenchmarkSimulation measures a complete 30-step simulation on a
// fresh test-class hierarchy per iteration. (Benchmarking repeated
// steps on one tree would not be stationary: patient queues grow with
// simulated time, so per-step cost rises across iterations.)
func BenchmarkSimulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := Build(classParams[core.Test])
		for s := 0; s < 30; s++ {
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
