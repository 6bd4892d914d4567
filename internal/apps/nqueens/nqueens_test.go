package nqueens

import (
	"testing"

	"bots/internal/core"
)

func TestSeqKnownCounts(t *testing.T) {
	for n := 1; n <= 10; n++ {
		got, _ := Seq(n)
		if got != knownSolutions[n] {
			t.Errorf("Seq(%d) = %d, want %d", n, got, knownSolutions[n])
		}
	}
}

// ok, the oracle free is tested against, reports whether a queen may
// be placed in column col of row row, given the columns of the queens
// in rows [0, row).
func ok(board []int8, row int, col int8) bool {
	for i := 0; i < row; i++ {
		d := board[i] - col
		if d == 0 || d == int8(row-i) || d == int8(i-row) {
			return false
		}
	}
	return true
}

// TestFreeColumnsMatchOk checks free against ok, column by column, at
// every board prefix the search reaches for n up to 10.
func TestFreeColumnsMatchOk(t *testing.T) {
	for n := 1; n <= 10; n++ {
		board := make([]int8, n)
		var walk func(row int)
		walk = func(row int) {
			if row == n {
				return
			}
			f := free(board[:row], n)
			for col := int8(0); col < int8(n); col++ {
				if got, want := f&(1<<col) != 0, ok(board, row, col); got != want {
					t.Fatalf("n=%d prefix %v: column %d free = %v, ok = %v", n, board[:row], col, got, want)
				}
				if ok(board, row, col) {
					board[row] = col
					walk(row + 1)
				}
			}
		}
		walk(0)
	}
}

func TestOkRejectsAttacks(t *testing.T) {
	board := []int8{0, 2, 4, 0} // queens at (0,0), (1,2), (2,4)
	// legal holds what row 3 allows, worked out apart from ok.
	legal := map[int8]bool{}
	for col := int8(0); col < 6; col++ {
		conflict := false
		for r, qc := range []int8{0, 2, 4} {
			d := qc - col
			if d == 0 || int(d) == 3-r || int(-d) == 3-r {
				conflict = true
			}
		}
		legal[col] = !conflict
	}
	for col := int8(0); col < 6; col++ {
		if got := ok(board, 3, col); got != legal[col] {
			t.Errorf("ok(row 3, col %d) = %v, want %v", col, got, legal[col])
		}
	}
}

func TestAllVersionsAndThreadCounts(t *testing.T) {
	b, err := core.Get("nqueens")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range b.Versions {
		for _, threads := range []int{1, 4} {
			res, err := b.Run(core.RunConfig{Class: core.Test, Version: version, Threads: threads})
			if err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if err := b.Check(seq, res); err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
		}
	}
}

func TestWorkParitySeqVsNoCutoff(t *testing.T) {
	b, _ := core.Get("nqueens")
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(core.RunConfig{Class: core.Test, Version: "none-tied", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WorkUnits != seq.Work {
		t.Fatalf("work units: parallel %d != sequential %d", res.Stats.WorkUnits, seq.Work)
	}
	man, err := b.Run(core.RunConfig{Class: core.Test, Version: "manual-tied", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if man.Stats.WorkUnits != seq.Work {
		t.Fatalf("work units: manual %d != sequential %d", man.Stats.WorkUnits, seq.Work)
	}
}

func TestCutoffReducesTasks(t *testing.T) {
	b, _ := core.Get("nqueens")
	none, err := b.Run(core.RunConfig{Class: core.Test, Version: "none-tied", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	man, err := b.Run(core.RunConfig{Class: core.Test, Version: "manual-tied", Threads: 2, CutoffDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if man.Stats.TotalTasks() >= none.Stats.TotalTasks()/4 {
		t.Fatalf("manual cut-off should slash task count: manual=%d none=%d",
			man.Stats.TotalTasks(), none.Stats.TotalTasks())
	}
}

func TestCapturedEnvironmentAccounted(t *testing.T) {
	b, _ := core.Get("nqueens")
	res, err := b.Run(core.RunConfig{Class: core.Test, Version: "none-tied", Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CapturedBytes == 0 {
		t.Fatal("nqueens copies the board into each task; captured bytes must be non-zero")
	}
	perTask := float64(res.Stats.CapturedBytes) / float64(res.Stats.TotalTasks())
	if perTask < 8 || perTask > 64 {
		t.Fatalf("captured bytes per task = %.1f, want a few tens", perTask)
	}
}
