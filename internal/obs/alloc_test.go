package obs

import "testing"

// TestRecordPathAllocs is the absolute allocation ceiling of the four
// record-path operations every instrumented hot path uses:
// Counter.Inc, Counter.AddShard, Histogram.RecordValue and a worker's
// flight-recorder Writer.Record, including the batch publish of every
// full stage. All four write into preallocated storage, so a team can
// stay instrumented without moving the allocation ceilings of the
// paths it observes: exactly 0, under race as well.
func TestRecordPathAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("bots_test_ops_total", "Record-path allocation probe.")
	var h Histogram
	reg.RegisterHistogram("bots_test_probe_seconds", "Record-path allocation probe.", &h)
	w := NewFlightRecorder(1, 4096).Writer(0)
	const n = 1024
	got := testing.AllocsPerRun(50, func() {
		for i := 0; i < n; i++ {
			c.Inc()
			c.AddShard(i, 1)
			h.RecordValue(int64(i) * 1000)
			w.Record(EvSpawn, int64(i))
		}
	}) / (4 * n)
	if got != 0 {
		t.Errorf("record path: %v allocs/op, want 0", got)
	}
}
