package perf

import "testing"

// TestObsGates enforces the observability-layer bound on its own: the
// record path — counter increments, histogram records, and
// flight-recorder Writer events — allocates nothing, so teams can stay
// instrumented without disturbing the allocation gates on the paths
// they observe.
func TestObsGates(t *testing.T) {
	alloc := obsRecordAllocMetric()
	if alloc.Name != "obs/record-allocs" {
		t.Fatalf("metric name = %q, want obs/record-allocs", alloc.Name)
	}
	if alloc.Value != 0 {
		t.Errorf("obs/record-allocs = %v allocs/op, want exactly 0", alloc.Value)
	}
	if !alloc.Gate || alloc.Ceiling != 0 {
		t.Errorf("obs/record-allocs must be gated at ceiling 0: gate=%v ceiling=%v", alloc.Gate, alloc.Ceiling)
	}
}
