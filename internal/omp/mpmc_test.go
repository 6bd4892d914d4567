package omp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMPMCRingFIFO pins single-threaded ring semantics: FIFO order,
// bounded capacity, eager slot clearing.
func TestMPMCRingFIFO(t *testing.T) {
	r := newMPMCRing(8)
	tasks := make([]*task, 8)
	for i := range tasks {
		tasks[i] = &task{depth: int32(i)}
		if !r.tryPush(tasks[i]) {
			t.Fatalf("push %d failed on a ring with room", i)
		}
	}
	if r.tryPush(&task{}) {
		t.Fatal("push succeeded on a full ring")
	}
	if got := r.size(); got != 8 {
		t.Fatalf("size = %d, want 8", got)
	}
	for i := range tasks {
		got := r.tryPop()
		if got != tasks[i] {
			t.Fatalf("pop %d: got %v, want task %d (FIFO order)", i, got, i)
		}
	}
	if r.tryPop() != nil {
		t.Fatal("pop succeeded on an empty ring")
	}
	for i := range r.slots {
		if r.slots[i].t != nil {
			t.Fatalf("slot %d still pins a task after pop (eager clear broken)", i)
		}
	}
}

// TestMPMCRingStress hammers the ring with concurrent producers and
// consumers over a deliberately tiny capacity, so every full/empty
// transition and CAS race is exercised; run under -race in CI. Every
// task must come out exactly once.
func TestMPMCRingStress(t *testing.T) {
	const (
		producers = 4
		consumers = 4
		perProd   = 5000
	)
	r := newMPMCRing(16) // tiny: constant wrap-around and full/empty races
	total := producers * perProd
	seen := make([]atomic.Int32, total)
	var consumed atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				tk := &task{depth: int32(p*perProd + i)}
				for !r.tryPush(tk) {
					runtime.Gosched() // full: wait for consumers
				}
			}
		}()
	}
	for cidx := 0; cidx < consumers; cidx++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for consumed.Load() < int64(total) {
				tk := r.tryPop()
				if tk == nil {
					runtime.Gosched()
					continue
				}
				seen[tk.depth].Add(1)
				consumed.Add(1)
			}
		}()
	}
	wg.Wait()
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("task %d consumed %d times, want exactly once", i, got)
		}
	}
	if r.tryPop() != nil {
		t.Fatal("ring not empty after all tasks consumed")
	}
}

// TestSchedulerConcurrentStress drives every scheduler
// through its raw interface with one goroutine per worker slot doing
// concurrent Push/PopLocal/Steal/Queued — the contract allows exactly
// that shape (Push and PopLocal owner-side per slot, Steal and Queued
// from anywhere). Every pushed task must be consumed exactly once,
// including prioritized tasks and tasks arriving through the
// centralized ring's overflow slow path (the per-slot volume exceeds
// the ring capacity). Run under -race in CI: this is the regression
// net for the MPMC ring and the work-advertisement word.
func TestSchedulerConcurrentStress(t *testing.T) {
	const (
		slots   = 4
		perSlot = 3000 // > centralRingCap per slot: forces overflow
	)
	for _, name := range Schedulers() {
		name := name
		t.Run(name, func(t *testing.T) {
			sched, err := NewScheduler(name)
			if err != nil {
				t.Fatal(err)
			}
			sched.Init(slots)
			total := slots * perSlot
			seen := make([]atomic.Int32, total)
			var consumed atomic.Int64
			var wg sync.WaitGroup
			for s := 0; s < slots; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Interleave production and consumption so queues
					// both grow (overflow) and drain (empty rechecks).
					for i := 0; i < perSlot; i++ {
						tk := &task{depth: int32(s*perSlot + i)}
						if i%97 == 0 {
							tk.priority = int32(1 + i%3) // exercise the priority queues
						}
						sched.Push(s, tk)
						if i%3 == 0 {
							if got := sched.PopLocal(s, nil); got != nil {
								seen[got.depth].Add(1)
								consumed.Add(1)
							}
						}
						if i%11 == 0 {
							sched.Queued(s)
							if got := sched.Steal(s, nil); got != nil {
								seen[got.depth].Add(1)
								consumed.Add(1)
							}
						}
					}
					// Drain: between PopLocal and Steal, every slot can
					// reach every remaining task in all disciplines.
					for consumed.Load() < int64(total) {
						got := sched.PopLocal(s, nil)
						if got == nil {
							got = sched.Steal(s, nil)
						}
						if got == nil {
							runtime.Gosched()
							continue
						}
						seen[got.depth].Add(1)
						consumed.Add(1)
					}
				}()
			}
			wg.Wait()
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("task %d consumed %d times, want exactly once", i, got)
				}
			}
			for s := 0; s < slots; s++ {
				if q := sched.Queued(s); q != 0 {
					t.Fatalf("slot %d reports %d queued after drain", s, q)
				}
			}
			// A fully drained team must stop advertising work: parked
			// thieves gate on this.
			for s := 0; s < slots; s++ {
				if sched.HasStealableWork(s) {
					t.Fatalf("slot %d still sees advertised work on a drained team", s)
				}
			}
			sched.Fini()
		})
	}
}

// TestAdvertisementClearRecheck pins the thief-side clear/recheck
// protocol directly: a clear racing a concurrent push must never be
// the final word on a non-empty queue (a falsely-clear bit would
// strand queued work behind parked thieves — the deadlock the advMask
// comment rules out).
func TestAdvertisementClearRecheck(t *testing.T) {
	d := &dequeScheduler{name: "workfirst"}
	d.Init(2)
	defer d.Fini()
	const rounds = 20000
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // thief on slot 1: sweep, consume, retract adverts
		defer wg.Done()
		for !stop.Load() {
			if tk := d.Steal(1, nil); tk == nil {
				runtime.Gosched()
			}
		}
		for d.Steal(1, nil) != nil { // drain the remainder
		}
	}()
	for i := 0; i < rounds; i++ { // owner on slot 0: push/pop bursts
		d.Push(0, &task{depth: int32(i)})
		if i%2 == 0 {
			d.PopLocal(0, nil)
		}
		// Advertisement soundness probe, in this order: if the view is
		// empty first and the queue non-empty after, the queue was
		// already non-empty at view time (only this goroutine pushes to
		// slot 0, so the backlog cannot have grown between the loads).
		// That state is legal *transiently* — the protocol guarantees
		// only that a non-empty queue eventually ends with its bit set
		// (a thief's clear precedes its recheck-restore) — so fail only
		// if it persists past every in-flight clear/recheck pair.
		if !d.HasStealableWork(1) && d.Queued(0) > 0 {
			stale := true
			for r := 0; r < 1000; r++ {
				if d.HasStealableWork(1) || d.Queued(0) == 0 {
					stale = false
					break
				}
				runtime.Gosched()
			}
			if stale {
				t.Fatal("slot 0 has queued work but the advertisement stayed clear (falsely-clear bit never restored)")
			}
		}
	}
	stop.Store(true)
	wg.Wait()
}
