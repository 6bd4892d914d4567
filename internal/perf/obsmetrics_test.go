package perf

import "testing"

// TestObsGates enforces the observability-layer bound the baseline
// comparison cannot (Compare skips gating when the baseline value is
// 0, and this one must be exactly 0): the record path — counter
// increments, histogram records, and flight-recorder Writer events —
// allocates nothing, so teams can
// stay instrumented without disturbing the allocation gates on the
// paths they observe.
func TestObsGates(t *testing.T) {
	metrics := obsMetrics(Options{Quick: true, Threads: 2}.defaults())
	byName := map[string]Metric{}
	for _, m := range metrics {
		byName[m.Name] = m
	}

	alloc, ok := byName["obs/record-allocs"]
	if !ok {
		t.Fatal("obs/record-allocs metric missing")
	}
	if alloc.Value != 0 {
		t.Errorf("obs/record-allocs = %v allocs/op, want exactly 0", alloc.Value)
	}
	if !alloc.Gate {
		t.Error("obs/record-allocs must be a gated metric")
	}

	over, ok := byName["obs/fib-overhead"]
	if !ok {
		t.Fatal("obs/fib-overhead metric missing")
	}
	if over.Gate {
		t.Error("obs/fib-overhead is host-dependent timing and must stay informational")
	}
	if over.Value <= 0 {
		t.Errorf("obs/fib-overhead = %v, want a positive ratio", over.Value)
	}
	if over.Extra["bare_ns"] <= 0 || over.Extra["instr_ns"] <= 0 {
		t.Errorf("obs/fib-overhead lacks the raw timings: %+v", over.Extra)
	}
}
