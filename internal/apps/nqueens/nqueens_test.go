package nqueens

import (
	"math/bits"
	"testing"
	"unsafe"

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

// ok, the oracle the attack masks are tested against, reports whether
// a queen may be placed in column col of row row, given the columns of
// the queens in rows [0, row).
func ok(board []int8, row int, col int8) bool {
	for i := 0; i < row; i++ {
		d := board[i] - col
		if d == 0 || d == int8(row-i) || d == int8(i-row) {
			return false
		}
	}
	return true
}

// checkFree fails t at the first column of row row whose bit in the
// free set of a disagrees with ok on board, or if the set has a bit
// past column n-1.
func checkFree(t *testing.T, n int, board []int8, row int, a attacks) {
	t.Helper()
	f := a.free(n)
	if f>>n != 0 {
		t.Fatalf("n=%d prefix %v: free set %b has bits past column %d", n, board[:row], f, n-1)
	}
	for col := int8(0); col < int8(n); col++ {
		if got, want := f&(1<<col) != 0, ok(board, row, col); got != want {
			t.Fatalf("n=%d prefix %v: column %d free = %v, ok = %v", n, board[:row], col, got, want)
		}
	}
}

// TestFreeColumnsMatchOk walks every board prefix the search reaches
// for n up to 10, carrying the attack state as the search does, and
// checks its free columns against ok, column by column.
func TestFreeColumnsMatchOk(t *testing.T) {
	for n := 1; n <= 10; n++ {
		board := make([]int8, n)
		var walk func(row int, a attacks)
		walk = func(row int, a attacks) {
			if row == n {
				return
			}
			checkFree(t, n, board, row, a)
			for f := a.free(n); f != 0; f &= f - 1 {
				col := bits.TrailingZeros(f)
				board[row] = int8(col)
				walk(row+1, a.place(1<<col))
			}
		}
		walk(0, attacks{})
	}
}

// FuzzQueenAttacks plays a script down one path of an n-row search, n
// from 1 to maxN: at each row it checks the carried attack state
// against ok, then places the queen on the k-th free column, k the
// script's next byte modulo the number of free columns. It stops at a
// dead end, past the last row or when the script runs out. At n = 16 a
// left diagonal from column 15 must shift out of the masks.
func FuzzQueenAttacks(f *testing.F) {
	f.Fuzz(func(t *testing.T, nb uint8, script []byte) {
		n := 1 + int(nb)%maxN
		board := make([]int8, n)
		var a attacks
		for row := 0; row < n; row++ {
			checkFree(t, n, board, row, a)
			free := a.free(n)
			if free == 0 || row == len(script) {
				break
			}
			for k := script[row] % byte(bits.OnesCount(free)); k > 0; k-- {
				free &= free - 1
			}
			col := bits.TrailingZeros(free)
			board[row] = int8(col)
			a = a.place(1 << col)
		}
	})
}

// TestNodeSize holds a task's cell to 24 bytes: the board, its attack
// state and the row, with no padding beyond the struct's alignment.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 24 {
		t.Fatalf("unsafe.Sizeof(node{}) = %d, want at most 24", size)
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
