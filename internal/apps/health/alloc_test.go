package health

import (
	"runtime"
	"testing"

	"bots/internal/core"
)

// TestHealthAllocsPerTask is the kernel's absolute allocation ceiling
// in the regime the repository benchmark runs: health/manual-tied at
// medium on two threads, everything the process allocates during the
// second of two runs, per task. What remains is one body closure per
// task, a patient chunk per 32 patients a village admits, and the
// village tree the run builds.
func TestHealthAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := core.RunConfig{Class: core.Medium, Version: "manual-tied", Threads: 2}
	if _, err := parRun(cfg); err != nil { // fills the runtime's recycling tiers
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := parRun(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	tasks := float64(res.Stats.TotalTasks())
	allocs := float64(after.Mallocs-before.Mallocs) / tasks
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / tasks
	t.Logf("%.0f tasks: %.2f allocs/task, %.0f B/task, %d GCs",
		tasks, allocs, bytes, after.NumGC-before.NumGC)
	if allocs > 2.5 {
		t.Errorf("%.2f allocs/task, want <= 2.5", allocs)
	}
	if bytes > 400 {
		t.Errorf("%.0f B/task, want <= 400", bytes)
	}
}
