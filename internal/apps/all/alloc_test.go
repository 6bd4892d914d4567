package all

import (
	"runtime"
	"testing"

	"bots/internal/core"
)

// TestSustainedAllocsPerTask is the whole-kernel allocation ceiling of
// every registered benchmark's BestVersion, and of the no-cut-off fib
// and nqueens versions region.finegrain runs, in the regime the
// repository benchmark runs: small class on two threads, everything
// the process allocates during the second of two runs, per task. Each
// ceiling is absolute, about a quarter above the highest reading on a
// 2-CPU host (in parentheses), so it holds on any machine and cannot
// creep with a re-recorded baseline. A kernel that spawns through a
// closure pays one body closure per task, and the runtime adds ~0.01
// on top. fib, nqueens, sort and uts spawn through omp.TaskFunc, whose
// recycled cells leave only the run's set-up, amortized over its
// tasks. health is pinned by its own TestHealthAllocsPerTask.
func TestSustainedAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rows := []struct {
		bench, version string
		ceiling        float64
	}{
		// Score allocates one DP row (m, ix, iy and b's weight column
		// per cell) per pair task. (2.31)
		{"alignment", "untied", 2.9},
		{"fft", "untied", 2.0},        // (1.19)
		{"fib", "manual-tied", 0.066}, // (0.053)
		{"fib", "none-tied", 0.002},   // every spawn is a task (0.0012)
		{"fib", "none-untied", 0.002}, // (0.0015)
		// Not a per-task cost: every search node below the manual
		// cut-off clones its board and builds a candidate set, and
		// those nodes run sequentially inside the 159 tasks above
		// it. By-value boards would remove most of it. (6 983)
		{"floorplan", "manual-untied", 8800},
		{"knapsack", "manual-untied", 2.0}, // (1.60)
		{"nqueens", "manual-untied", 0.29}, // (0.233)
		{"nqueens", "none-untied", 0.005},  // (0.0039)
		{"sort", "untied", 0.034},          // (0.027)
		{"sparselu", "for-tied", 2.0},      // (1.56)
		// Each product task allocates its operand temporaries, and
		// each inner node its seven product matrices and the
		// closures that compute them. (6.1)
		{"strassen", "none-tied", 7.6},
		// The root's 2 000 children are outstanding at once, so the
		// run allocates about that many cells. (0.218)
		{"uts", "manual-untied", 0.27},
	}

	have := map[string]bool{}
	for _, r := range rows {
		have[r.bench+"/"+r.version] = true
	}
	for _, b := range core.All() {
		if b.Name != "health" && !have[b.Name+"/"+b.BestVersion] {
			t.Errorf("%s/%s: best version has no ceiling", b.Name, b.BestVersion)
		}
	}

	for _, r := range rows {
		b, err := core.Get(r.bench)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.RunConfig{Class: core.Small, Version: r.version, Threads: 2}
		if _, err := b.Run(cfg); err != nil { // fills the runtime's recycling tiers
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := b.Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		tasks := float64(res.Stats.TotalTasks())
		allocs := float64(after.Mallocs-before.Mallocs) / tasks
		t.Logf("%s/%s: %.0f tasks, %.4g allocs/task, %.0f B/task", r.bench, r.version,
			tasks, allocs, float64(after.TotalAlloc-before.TotalAlloc)/tasks)
		if allocs > r.ceiling {
			t.Errorf("%s/%s: %.4g allocs/task, want <= %g", r.bench, r.version, allocs, r.ceiling)
		}
	}
}
