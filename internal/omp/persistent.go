package omp

import (
	"runtime"
	"sync"
	"sync/atomic"

	"bots/internal/obs"
)

// PersistentTeam is a long-lived worker team that executes submitted
// task regions without paying team construction per region. Parallel
// builds a team, runs one SPMD region, and tears the team down; a
// service workload instead holds a warm team and pushes many small
// task DAGs through it, so the scheduler state (pooled queues, the
// work-advertisement word, the wake channels) and the task-recycling
// tiers must survive across regions. That is exactly what this type
// does:
//
//	pt := omp.NewPersistentTeam(4, omp.WithScheduler("workfirst"))
//	for each request {
//	    pt.SubmitDetached(handler, onDone) // or Submit / SubmitWait
//	}
//	pt.Close()
//
// Each submission runs as one root task (plus all the tasks it
// spawns) on the shared team; submissions execute concurrently with
// each other when workers are available. A submission body is a task
// region, not an SPMD region: Task/Taskwait/Taskgroup/Spawn and the
// dependence clauses all work, but the thread-team constructs
// (Barrier, Single, For, Sections) must not be used — there is no
// per-submission thread team to arrive at them.
//
// Submissions are injected through an inbox, not through the
// scheduler (Scheduler.Push is owner-only: only a team worker may
// push to its own queues). An idle worker picks a submission off the
// inbox and executes its root task inline — work-first, minimum
// latency — and the tasks the root spawns flow through the installed
// scheduler exactly as in a Parallel region.
//
// A panic in a submission body completes that submission normally
// (waiters are released) and is re-raised at Close, matching
// Parallel's contract at region end.
type PersistentTeam struct {
	tm       *Team
	implicit []*task // one depth-0 parent task per worker
	wg       sync.WaitGroup
	closed   atomic.Bool

	// inbox is an intrusive FIFO of accepted, not yet started
	// submissions. inboxLen mirrors the list length so the worker
	// fast path and the park re-check need no lock; it is also the
	// submitter's half of the Dekker handshake with parking workers
	// (see serveWorker).
	inboxMu   sync.Mutex
	inboxHead *Submission
	inboxTail *Submission
	inboxLen  atomic.Int64

	// inflight counts submissions accepted and not yet completed
	// (inbox plus executing). Drain waits for it to reach zero.
	inflight  atomic.Int64
	quietMu   sync.Mutex
	quietCond *sync.Cond

	// subPool recycles Submission structs so a steady-state submit is
	// allocation-free (the perf suite gates this).
	subPool sync.Pool

	// obsMu fences observability sampling (obs.go) against Close:
	// Queued reaches into scheduler state that shutdown releases, so
	// the sampling accessors hold the read side and Close holds the
	// write side around shutdown, after which finalized makes every
	// accessor return zero. Scrape handlers registered via RegisterObs
	// may therefore safely outlive the team.
	obsMu     sync.RWMutex
	finalized bool
}

// Submission is the handle to one submitted task region. Handles from
// Submit must be Wait()ed exactly once — Wait recycles the handle.
// SubmitDetached manages the handle internally.
type Submission struct {
	pt   *PersistentTeam
	body func(*Context)
	// tg threads the submitted subtree: the root task and every
	// descendant belong to it, so it empties exactly when the whole
	// DAG has finished (see taskgroup and task.finish).
	tg       taskgroup
	detached bool
	onDone   func()
	done     chan struct{} // cap 1; one token per Submit/Wait cycle
	next     *Submission   // inbox link
	start    Stats         // team snapshot at submit, for Wait's delta
}

// NewPersistentTeam starts a team of n workers that serves
// submissions until Close. The TeamOpts are those of Parallel
// (WithScheduler, WithCutoff, WithRecorder); the scheduler instance —
// and therefore its region seed — is fixed for the team's lifetime.
func NewPersistentTeam(n int, opts ...TeamOpt) *PersistentTeam {
	if n < 1 {
		n = 1
	}
	tm, implicit := newTeam(n, opts)
	pt := &PersistentTeam{tm: tm, implicit: implicit}
	pt.quietCond = sync.NewCond(&pt.quietMu)
	for i := 0; i < n; i++ {
		pt.wg.Add(1)
		go pt.serveWorker(tm.workers[i], implicit[i])
	}
	return pt
}

// NumWorkers returns the team size.
func (pt *PersistentTeam) NumWorkers() int { return len(pt.tm.workers) }

// Stats returns a point-in-time snapshot of the team's cumulative
// counters. Safe to call from any goroutine at any time, including
// while submissions run (the counters it reads are atomic; see
// workerStats). The per-task counts — TasksCreated, TasksUndeferred,
// Taskwaits, CapturedBytes, WorkUnits, PrivateWrites, SharedWrites —
// are copied there by each worker whenever it finishes a deferred task
// or parks, so while submissions run a snapshot lags by what the tasks
// still running or suspended have counted so far; once the team is
// idle it is exact.
func (pt *PersistentTeam) Stats() Stats { return pt.tm.snapshot() }

// Submit enqueues body as one task region and returns its handle.
// The caller must call Wait on the handle exactly once. Submit never
// blocks on the team being busy (the inbox is unbounded); callers
// that need admission control impose it outside (internal/serve's
// concurrency cap does).
func (pt *PersistentTeam) Submit(body func(*Context)) *Submission {
	s := pt.newSub()
	s.body = body
	s.detached = false
	s.start = pt.tm.snapshot()
	pt.enqueueSub(s)
	return s
}

// SubmitWait runs body as a submission and blocks until its whole
// task DAG has completed, returning the team-wide stats delta
// accumulated while it ran (exact attribution when submissions are
// serialized; with concurrent submissions the delta includes their
// overlapping activity).
func (pt *PersistentTeam) SubmitWait(body func(*Context)) Stats {
	return pt.Submit(body).Wait()
}

// SubmitDetached enqueues body without a handle; onDone, if non-nil,
// runs on a team worker when the submission's task DAG has completed,
// so it must be brief and must not block (record a timestamp, bump a
// counter, signal a channel).
func (pt *PersistentTeam) SubmitDetached(body func(*Context), onDone func()) {
	s := pt.newSub()
	s.body = body
	s.detached = true
	s.onDone = onDone
	pt.enqueueSub(s)
}

// Wait blocks until the submission's task DAG has completed and
// returns the team-wide stats delta since Submit. It must be called
// exactly once per handle; the handle is recycled and invalid after
// Wait returns.
func (s *Submission) Wait() Stats {
	<-s.done
	pt := s.pt
	delta := pt.tm.snapshot().Sub(s.start)
	pt.putSub(s)
	return delta
}

// Drain blocks until every accepted submission has completed. It does
// not close the inbox: new submissions may arrive during and after a
// drain (a drain concurrent with submitters is simply a moment of
// quiescence, not a fence). After draining it opportunistically
// flushes the workers' grave lists (see tryFlushGraves).
func (pt *PersistentTeam) Drain() {
	pt.quietMu.Lock()
	for pt.inflight.Load() != 0 {
		pt.quietCond.Wait()
	}
	pt.quietMu.Unlock()
	pt.tryFlushGraves()
}

// Close drains outstanding submissions, stops the workers, releases
// the team's pooled state, and returns the team's final cumulative
// stats. Submitting during or after Close panics. If any submission
// body panicked, the first panic is re-raised here (the submissions
// themselves completed with their effects so far, as for Parallel).
func (pt *PersistentTeam) Close() *Stats {
	if pt.closed.Swap(true) {
		panic("omp: Close of already-closed PersistentTeam")
	}
	pt.tm.ringAll() // wake parked workers to observe closed
	pt.wg.Wait()
	pt.obsMu.Lock()
	st := pt.tm.shutdown(pt.implicit)
	pt.finalized = true
	pt.obsMu.Unlock()
	if pt.tm.panicVal != nil {
		panic(pt.tm.panicVal)
	}
	return st
}

// newSub returns a recycled (or fresh) Submission bound to pt.
func (pt *PersistentTeam) newSub() *Submission {
	s, _ := pt.subPool.Get().(*Submission)
	if s == nil {
		s = &Submission{done: make(chan struct{}, 1)}
	}
	s.pt = pt
	s.tg.sub = s
	return s
}

// putSub recycles a completed submission. All transient fields were
// cleared by complete/Wait; the done channel is empty (its one token
// was consumed) and is reused.
func (pt *PersistentTeam) putSub(s *Submission) {
	s.pt = nil
	s.tg.sub = nil
	s.start = Stats{}
	pt.subPool.Put(s)
}

// enqueueSub appends s to the inbox and wakes a parked worker. The
// no-lost-wakeup argument is the runtime's usual Dekker handshake
// (cf. Team.barrier): the submitter increments inboxLen before
// loading idleWaiters (inside ring), and a parking worker increments
// idleWaiters before re-checking inboxLen — both sequentially
// consistent — so either the parker's re-check sees the submission or
// the submitter sees the registration and rings the doorbell.
func (pt *PersistentTeam) enqueueSub(s *Submission) {
	if pt.closed.Load() {
		panic("omp: Submit on closed PersistentTeam")
	}
	pt.inflight.Add(1)
	pt.inboxMu.Lock()
	if pt.inboxTail == nil {
		pt.inboxHead = s
	} else {
		pt.inboxTail.next = s
	}
	pt.inboxTail = s
	pt.inboxMu.Unlock()
	n := pt.inboxLen.Add(1)
	if fr := pt.tm.fr; fr != nil {
		// Submitters are not team workers: the event lands on the
		// recorder's external ring, carrying the inbox depth.
		fr.Record(-1, obs.EvSubmit, n)
	}
	pt.tm.ring()
}

// dequeueSub pops the oldest pending submission, or nil. The
// lock-free length check keeps the empty-inbox probe (every idle loop
// iteration of every worker) off the mutex.
func (pt *PersistentTeam) dequeueSub() *Submission {
	if pt.inboxLen.Load() == 0 {
		return nil
	}
	pt.inboxMu.Lock()
	s := pt.inboxHead
	if s != nil {
		pt.inboxHead = s.next
		if pt.inboxHead == nil {
			pt.inboxTail = nil
		}
		s.next = nil
		pt.inboxLen.Add(-1)
	}
	pt.inboxMu.Unlock()
	return s
}

// complete finishes the submission whose taskgroup just emptied.
// Called from task.finish on whichever worker retired the last task
// of the subtree.
func (s *Submission) complete() {
	pt := s.pt
	s.body = nil
	if s.detached {
		cb := s.onDone
		s.onDone = nil
		pt.putSub(s) // recycle before the callback: cb may submit again
		if cb != nil {
			cb() // before the inflight decrement: Drain implies cb ran
		}
		if pt.inflight.Add(-1) == 0 {
			pt.signalQuiet()
		}
		return
	}
	s.done <- struct{}{} // cap-1 buffer, one token per cycle: never blocks
	if pt.inflight.Add(-1) == 0 {
		pt.signalQuiet()
	}
}

func (pt *PersistentTeam) signalQuiet() {
	pt.quietMu.Lock()
	pt.quietCond.Broadcast()
	pt.quietMu.Unlock()
}

// runSubmission starts one pending submission on w: its body becomes
// a root task (child of the worker's implicit task, member of the
// submission's taskgroup) executed inline, so the submitted DAG flows
// through exactly the machinery a Parallel region uses — execute,
// finish, the scheduler for every spawned task. Allocation-free: the
// root task comes from the worker's recycling tiers.
func (pt *PersistentTeam) runSubmission(w *worker, it *task) bool {
	s := pt.dequeueSub()
	if s == nil {
		return false
	}
	tm := pt.tm
	t := w.newTask()
	t.body = s.body
	t.parent = it
	t.team = tm
	t.creator = w
	t.depth = 1
	t.group = &s.tg
	if tm.rec != nil {
		t.node = tm.rec.Root()
	}
	s.tg.enter() // the root itself holds the group until its finish
	it.pending.Add(1)
	w.stats.liveCreated.Add(1)
	w.execute(t)
	return true
}

// serveWorker is the persistent analogue of a Parallel worker's
// region body + final barrier: a loop that starts submissions, runs
// tasks, and parks when there is nothing to do. The idle protocol is
// the barrier's bounded spin → park (see Team.barrier for the
// lost-wakeup argument); the wake sources are task enqueues
// (worker.enqueue → ring), submission arrivals (enqueueSub → ring),
// and Close (ringAll).
func (pt *PersistentTeam) serveWorker(w *worker, it *task) {
	defer pt.wg.Done()
	defer w.publish()
	tm := pt.tm
	if tm.pinWorkers {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	w.cur = it
	idle := 0
	for {
		if pt.runSubmission(w, it) {
			idle = 0
			continue
		}
		if w.runOne(nil) {
			idle = 0
			continue
		}
		// A single-worker team observed with no live task is quiescent
		// on the spot — no thief exists, no queue holds a task, no Wait
		// is in flight — so the worker recycles what it buried (future
		// cells, and the tasks in-region reclamation had to leave
		// behind) instead of waiting for Close. This is what keeps a
		// sequential submit loop at zero steady-state allocations.
		if len(tm.workers) == 1 && (len(w.grave) > 0 || len(w.futGrave) > 0) && tm.live() == 0 {
			w.flushGraves(w.free)
		}
		if pt.closed.Load() && pt.inflight.Load() == 0 && tm.live() == 0 {
			return
		}
		idle++
		if idle < barrierSpinRounds {
			if idle > 4 {
				runtime.Gosched()
			}
			continue
		}
		// Park until a submission, an enqueue, or Close rings.
		// Register first, then re-check every wake source, so no
		// concurrent ring can be missed (same protocol as barrier).
		// Token wakes are absorption-safe here: once closed is set no
		// worker re-parks (the re-check above sees it), so Close's
		// ringAll tokens cannot be drained away from a parked peer. As
		// at the barrier, a task found by the re-check runs after
		// deregistering.
		w.publish()
		tm.idleWaiters.Add(1)
		if t := w.pick(nil); t != nil || pt.inboxLen.Load() > 0 || pt.closed.Load() {
			tm.idleWaiters.Add(-1)
			if t != nil {
				w.execute(t)
			}
			idle = 0
			continue
		}
		w.stats.idleParks.Add(1)
		tm.parkOnDoorbell(w, nil)
		tm.idleWaiters.Add(-1)
		idle = 0
	}
}

// tryFlushGraves recycles every worker's grave list on a multi-worker
// team, when safe. Strict tasks are reclaimed while the team runs
// (pool.go); what is buried — non-strict and dependence tasks, future
// cells — is still readable by live descendants, stale thief reads or
// a parent's dependence table, so the flush is only performed at full
// quiescence — no inflight submission, no live task, and every worker
// registered as parked — observed under inboxMu so no new submission
// can slip in while flushing. Once all workers have registered, any
// later probe (a spuriously woken worker re-checking) starts fresh
// against empty queues and never dereferences a slot, so the flush
// cannot race it. When the moment of quiescence never comes
// (sustained load), graves stay bounded by maxWorkerGrave and
// overflow is dropped to the GC — the same bound a long Parallel
// region has.
func (pt *PersistentTeam) tryFlushGraves() {
	tm := pt.tm
	if len(tm.workers) == 1 {
		return // the worker flushes its own grave when idle
	}
	pt.inboxMu.Lock()
	defer pt.inboxMu.Unlock()
	if pt.inflight.Load() != 0 || tm.live() != 0 {
		return
	}
	if int(tm.idleWaiters.Load()) != len(tm.workers) {
		return
	}
	for _, w := range tm.workers {
		w.flushGraves(func(t *task) { taskPool.Put(t) })
	}
}
