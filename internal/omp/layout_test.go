package omp

import (
	"testing"
	"unsafe"
)

// TestPaddedLayout pins the false-sharing separations the padding
// audit landed (DESIGN.md §12): the measured wins only hold while the
// hot words actually sit on distinct cache lines, and an innocent
// field addition would silently fold them back together. Offsets are
// asserted as "at least a line apart" rather than exact, so benign
// reordering inside a cluster stays legal.
func TestPaddedLayout(t *testing.T) {
	const line = 64

	gap := func(name string, lo, hi uintptr) {
		t.Helper()
		if hi < lo {
			lo, hi = hi, lo
		}
		if hi-lo < line {
			t.Errorf("%s: %d bytes apart, want >= %d (false-sharing pad lost)", name, hi-lo, line)
		}
	}

	// deque: the thief-CASed top and the owner-written bottom/ring
	// must not share a line (Chase–Lev's classic hazard).
	var d deque
	gap("deque.top vs deque.bottom", unsafe.Offsetof(d.top), unsafe.Offsetof(d.bottom))
	if sz := unsafe.Sizeof(d); sz%line != 0 {
		t.Errorf("sizeof(deque) = %d, want a multiple of %d", sz, line)
	}

	// schedSlot: exactly two lines per slot so neighbouring slots in
	// the ws array never share a line (and the adjacent-line
	// prefetcher cannot couple them).
	if sz := unsafe.Sizeof(schedSlot{}); sz != 2*line {
		t.Errorf("sizeof(schedSlot) = %d, want %d", sz, 2*line)
	}

	// workerStats: whole-line multiple, as its comment promises.
	if sz := unsafe.Sizeof(workerStats{}); sz%line != 0 {
		t.Errorf("sizeof(workerStats) = %d, want a multiple of %d", sz, line)
	}

	// worker: the live-task counters sit in workerStats, written by the
	// owner on every spawn and finish, and must not share a line with
	// the words other workers read (the quiesce counter of every limbo
	// batch, the waitTask and wakeCh of every wake). Words are 8-byte
	// aligned, so a line apart start to start is a different line.
	var w worker
	stats := unsafe.Offsetof(w.stats)
	for _, c := range []struct {
		name string
		off  uintptr
	}{
		{"liveCreated", stats + unsafe.Offsetof(w.stats.liveCreated)},
		{"liveFinished", stats + unsafe.Offsetof(w.stats.liveFinished)},
	} {
		gap("worker.quiesce vs worker.stats."+c.name, unsafe.Offsetof(w.quiesce), c.off)
		gap("worker.waitTask vs worker.stats."+c.name, unsafe.Offsetof(w.waitTask), c.off)
		gap("worker.wakeCh vs worker.stats."+c.name, unsafe.Offsetof(w.wakeCh), c.off)
	}

	// The plain task counters are written on every task and read by no
	// other goroutine: they belong in the owner-only part, before the
	// pad, off the line of the words other workers read.
	counts := unsafe.Offsetof(w.counts)
	if counts > unsafe.Offsetof(w.quiesce) {
		t.Errorf("worker.counts at %d lies past worker.quiesce at %d, outside the owner-only part", counts, unsafe.Offsetof(w.quiesce))
	}
	last := counts + unsafe.Sizeof(w.counts) - 8
	gap("worker.counts (last word) vs worker.quiesce", last, unsafe.Offsetof(w.quiesce))
	gap("worker.counts (last word) vs worker.waitTask", last, unsafe.Offsetof(w.waitTask))
	gap("worker.counts (last word) vs worker.wakeCh", last, unsafe.Offsetof(w.wakeCh))

	// mpmcSlot: one slot per line (mpmc.go's documented invariant).
	if sz := unsafe.Sizeof(mpmcSlot{}); sz != line {
		t.Errorf("sizeof(mpmcSlot) = %d, want %d", sz, line)
	}

	// Team: the configuration words (loaded on every pick), the
	// barrier generation words, the read-mostly idleWaiters, and the
	// read-mostly waitParkers each get their own line, and the
	// worksharing mutex that follows does not share the last one.
	var tm Team
	gap("Team.pinWorkers vs Team.barGen", unsafe.Offsetof(tm.pinWorkers), unsafe.Offsetof(tm.barGen))
	gap("Team.barGen vs Team.idleWaiters", unsafe.Offsetof(tm.barGen), unsafe.Offsetof(tm.idleWaiters))
	gap("Team.idleWaiters vs Team.waitParkers", unsafe.Offsetof(tm.idleWaiters), unsafe.Offsetof(tm.waitParkers))
	gap("Team.waitParkers vs Team.wsMu", unsafe.Offsetof(tm.waitParkers), unsafe.Offsetof(tm.wsMu))
}
