package lab_test

import (
	"reflect"
	"testing"
	"time"

	_ "bots/internal/apps/all"
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/sim"
)

// TestSimParams checks the calibration of every registered benchmark:
// the work unit is the baseline's ns per unit of work (1 ns when the
// baseline measured none), the memory profile is the benchmark's, and
// the job's scheduler and overrides are applied on top of the default
// overheads.
func TestSimParams(t *testing.T) {
	spec := lab.JobSpec{Policy: "centralized", Overheads: &lab.SimOverrides{
		ThreadSwitch: true, SwitchNS: 70, QueueSerializeNS: 40}}
	def := sim.DefaultOverheads()
	for _, b := range core.All() {
		p := lab.SimParams(b, &core.SeqResult{Elapsed: 3 * time.Microsecond, Work: 1000}, spec)
		want := def
		want.WorkUnitNS = 3
		want.MemFraction, want.BandwidthCap = b.Profile.MemFraction, b.Profile.BandwidthCap
		want.Scheduler = "centralized"
		want.ThreadSwitch, want.SwitchNS, want.QueueSerializeNS = true, 70, 40
		if !reflect.DeepEqual(p, want) {
			t.Errorf("%s: SimParams = %+v, want %+v", b.Name, p, want)
		}
		for _, seq := range []core.SeqResult{{Work: 1000}, {Elapsed: time.Microsecond}} {
			if p := lab.SimParams(b, &seq, lab.JobSpec{}); p.WorkUnitNS != 1 {
				t.Errorf("%s: baseline %+v calibrates %v ns/unit, want 1", b.Name, seq, p.WorkUnitNS)
			}
		}
	}
}
