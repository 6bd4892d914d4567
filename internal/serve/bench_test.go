package serve

import (
	"testing"

	"bots/internal/core"
	"bots/internal/omp"
)

// BenchmarkHealthRequest is the in-package owner of serve.open's
// per-request cost: one health/test request at a time on a two-worker
// persistent team, NewRequest → SubmitWait → verify, with the
// reference digest prepared once outside the timer. ns/op is one
// closed-loop client's request latency; allocs/op is everything a
// request allocates, kernel and runtime together.
func BenchmarkHealthRequest(b *testing.B) {
	w, err := LookupWorkload("health")
	if err != nil {
		b.Fatal(err)
	}
	prep, err := w.Prepare(core.Test, -1)
	if err != nil {
		b.Fatal(err)
	}
	pt := omp.NewPersistentTeam(2)
	defer pt.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, verify := prep.NewRequest()
		pt.SubmitWait(body)
		if !verify() {
			b.Fatalf("request %d failed verification", i)
		}
	}
}
