package perf

import "testing"

// TestServiceGates enforces the service-mode bounds on their own:
// steady-state allocations per persistent-team submission, and the shed
// rate at calibrated load, both gated at a ceiling of 0. CI's
// service-smoke job asserts the same properties from the botserve JSON
// side.
func TestServiceGates(t *testing.T) {
	metrics, err := serviceMetrics(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Metric{}
	for _, m := range metrics {
		byName[m.Name] = m
	}

	alloc, ok := byName["serve/submit-allocs"]
	if !ok {
		t.Fatal("serve/submit-allocs metric missing")
	}
	if alloc.Value > 0.5 {
		t.Errorf("serve/submit-allocs = %.2f allocs/request, want ~0 steady state", alloc.Value)
	}
	if !alloc.Gate || alloc.Ceiling != 0 {
		t.Errorf("serve/submit-allocs must be gated at ceiling 0: gate=%v ceiling=%v", alloc.Gate, alloc.Ceiling)
	}

	shed, ok := byName["serve/shed-rate"]
	if !ok {
		t.Fatal("serve/shed-rate metric missing")
	}
	if shed.Value != 0 {
		t.Errorf("serve/shed-rate = %v at calibrated load, want exactly 0", shed.Value)
	}
	if !shed.Gate || shed.Ceiling != 0 {
		t.Errorf("serve/shed-rate must be gated at ceiling 0: gate=%v ceiling=%v", shed.Gate, shed.Ceiling)
	}
	if shed.Extra["verify_failures"] != 0 {
		t.Errorf("service run had %v verification failures", shed.Extra["verify_failures"])
	}
}
