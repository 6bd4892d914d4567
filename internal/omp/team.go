package omp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bots/internal/obs"
	"bots/internal/trace"
)

// Team is one parallel region's thread team: a set of workers
// executing an SPMD region body plus the explicit tasks it creates,
// with all task placement and consumption delegated to a Scheduler.
type Team struct {
	workers []*worker
	cutoff  CutoffPolicy
	sched   Scheduler
	rec     *trace.Recorder
	// fr, when non-nil, receives spawn/steal/park/wake/submit/finish
	// events (WithFlightRecorder): workers record through their own
	// worker.events handle, submitters through fr itself.
	fr *obs.FlightRecorder
	// pinWorkers makes every worker goroutine wire itself to an OS
	// thread (runtime.LockOSThread) for the region's lifetime — the
	// oversubscription/pinning lab axis (WithPinning).
	pinWorkers bool

	// Cache-line padding between the atomic clusters below: each
	// cluster has a distinct writer population and write rate, and
	// without separation a barrier arrival would invalidate the line
	// under the configuration words above (loaded on every pick), or
	// under the read-mostly words below it (idleWaiters and
	// waitParkers, loaded on every enqueue). The separations are pinned
	// by TestPaddedLayout; DESIGN §12.1 records the cross-core
	// invalidation cost they remove. The Team is allocated once per
	// region, so the size cost is irrelevant.
	//
	// No word here is written per task. The live-task count, which
	// barriers and the quiescence checks wait on, is kept per worker
	// in workerStats and summed by live: a task nobody steals writes
	// only its own worker's lines.
	_ [64]byte

	// Barrier state (sense-reversing, task-executing). barBells holds
	// one completion bell per barrier-generation parity: workers parked
	// at generation g block on barBells[g&1], and the completing worker
	// closes it — a closed-channel broadcast wakes *every* parker of
	// that generation and cannot be absorbed, unlike doorbell tokens,
	// which workers that already advanced to generation g+1 can drain
	// through their own spin→park cycles before a still-parked
	// generation-g worker is handed one (a real lost-wakeup observed as
	// one worker asleep at a completed barrier while the rest park at
	// the next). The slot for g+1 is re-armed by the completer of g
	// *before* barGen advances, so a generation-g+1 parker — which
	// loads its bell only after observing barGen == g+1 — always finds
	// a fresh channel; the slot being recycled belonged to g-1, whose
	// parkers all left (completing g required their arrival).
	barGen     atomic.Int64
	barArrived atomic.Int64
	barBells   [2]chan struct{}
	_          [32]byte // barrier cluster: 32 bytes of fields + pad = one line

	// Doorbell for the bounded-spin→park idle protocol: workers that
	// exhaust their spin budget register in idleWaiters and block on
	// the doorbell channel; every task enqueue and every submission
	// rings it. The channel's capacity is the team size, so a
	// non-blocking send can never lose a wake while any worker still
	// needs one (≤ n-1 parkers ⇒ a full buffer already holds a token
	// for each). Barrier completion broadcasts via barBells above, not
	// doorbell tokens. See barrier for the lost-wakeup argument.
	// idleWaiters is read-mostly: loaded by ring() on every enqueue,
	// written only at park/unpark edges — so its line stays in the
	// shared state of every core's cache as long as nothing hot is
	// co-located with it.
	idleWaiters atomic.Int32
	doorbell    chan struct{}
	_           [48]byte

	// waitParkers counts workers registered in a condition wait —
	// taskwait, Future.Wait, a Taskgroup drain (see worker.waitPark).
	// Read-mostly like idleWaiters: loaded by every enqueue and by
	// every completion that could satisfy a waiter, written only at
	// park edges; non-zero is what sends wakeWaiters on its scan.
	waitParkers atomic.Int32
	_           [60]byte

	// Worksharing bookkeeping: per-construct-instance state, keyed by
	// each thread's private construct counter (all threads encounter
	// worksharing constructs in the same order, per OpenMP rules).
	wsMu      sync.Mutex
	wsSingles map[int64]bool
	wsLoops   map[int64]*loopState
	wsReduces map[int64]bool

	// panicVal holds the first panic raised by a task or region body;
	// Parallel re-raises it after the region completes.
	panicMu  sync.Mutex
	panicVal any
}

// TeamOpt configures a parallel region.
type TeamOpt func(*teamConfig)

type teamConfig struct {
	cutoff CutoffPolicy
	sched  Scheduler
	rec    *trace.Recorder
	fr     *obs.FlightRecorder
	pin    bool
}

// WithCutoff installs a runtime cut-off policy (default NoCutoff).
func WithCutoff(p CutoffPolicy) TeamOpt { return func(c *teamConfig) { c.cutoff = p } }

// WithScheduler selects the task scheduler by name; the empty name
// selects DefaultScheduler. It panics on an unknown name —
// layers that accept user input validate through NewScheduler (or
// Schedulers) first, so by the time an option list is assembled the
// name is a programming error if invalid. A scheduler instance
// belongs to one region, so the option constructs a fresh one each
// time it is applied: the same TeamOpt value may be reused across
// (even concurrent) Parallel calls.
func WithScheduler(name string) TeamOpt {
	if _, err := NewScheduler(name); err != nil {
		panic(err)
	}
	return func(c *teamConfig) {
		s, err := NewScheduler(name)
		if err != nil {
			panic(err)
		}
		c.sched = s
	}
}

// WithRecorder attaches a task-graph recorder; every task event in
// the region is recorded for later simulation.
func WithRecorder(r *trace.Recorder) TeamOpt { return func(c *teamConfig) { c.rec = r } }

// WithPinning wires each worker goroutine to its own OS thread
// (runtime.LockOSThread) for the region's — or persistent team's —
// lifetime. Go cannot bind an OS thread to a particular core, but
// locking removes goroutine migration between threads, which is the
// controllable half of CPU affinity: with GOMAXPROCS >= team size,
// each pinned worker keeps its P, its timer state, and its cache
// working set. The lab's oversubscription axis sweeps this knob
// against the Procs axis (see internal/lab and core.RunConfig).
func WithPinning(on bool) TeamOpt { return func(c *teamConfig) { c.pin = on } }

// worker is one team thread.
type worker struct {
	id   int
	team *Team
	cur  *task // task currently executing on this worker

	singleIdx int64 // private counter of single constructs encountered
	loopIdx   int64 // private counter of loop constructs encountered
	reduceIdx int64 // private counter of Reduce constructs encountered

	// Task-recycling tiers (pool.go); owner-only. limbo is the open
	// batch of finished strict tasks, graced the closed batch waiting
	// out its grace period, gracedAt every worker's quiesce counter
	// when it closed. The three lists start out on arrays inside the
	// worker, so a region that never outgrows a batch allocates
	// nothing for them.
	freeTasks []*task
	limbo     []*task
	graced    []*task
	gracedAt  []uint64
	grave     []*task
	futGrave  []futCell
	freeSuccs []*succNode
	freeBuf   [maxWorkerFreeTasks]*task
	limboBuf  [2][limboBatch]*task

	// taskCfg is the scratch task-creation config Task/Spawn apply
	// options into; owner-only. Living in the worker (already on the
	// heap) keeps the opaque option calls from forcing a per-spawn
	// heap allocation of the config.
	taskCfg taskConfig

	// counts are the counters every task bumps, plain and owner-only;
	// stats below holds the copies other goroutines read (see
	// workerStats for when they are published).
	counts taskCounts

	// events is this worker's flight-recorder handle, nil when the team
	// has no recorder; owner-only. Every event site nil-checks it, so
	// the default configuration pays one predictable branch. Events
	// stage in the handle and are published before every block
	// (publish) and when the worker exits.
	events *obs.Writer

	// Reusable constraint predicate: runOne installs the suspended
	// tied task in predConstraint and hands schedulers predFn, so a
	// constrained pick allocates no closure. predFn is built once per
	// worker; predConstraint is only read during the synchronous
	// PopLocal/Steal calls of this worker's own runOne.
	predConstraint *task
	predFn         func(*task) bool

	// The words other workers read, on a line of their own so the
	// owner's per-task writes above and in stats below never invalidate
	// it; the owner writes them only at the edges of a constrained steal
	// or a park. Across each pad the next word starts at least 64 bytes
	// after the previous one, so the two never share a line whatever
	// the worker's alignment.
	_ [64]byte
	// quiesce is odd while w is inside a constrained Steal, the one
	// section in which a task read from a stale queue slot is
	// dereferenced; limbo batches wait on it (pool.go).
	quiesce atomic.Uint64
	// waitTask is non-nil while w is registered in a condition wait:
	// the task whose taskwait it is parked in, or waitAny for a
	// Future.Wait or Taskgroup drain. wakeCh (capacity 1) is what it
	// blocks on; see waitPark.
	waitTask atomic.Pointer[task]
	wakeCh   chan struct{}
	_        [56]byte

	stats workerStats
}

// Parallel executes body on a team of n threads, each running in its
// own goroutine, with an implicit task-executing barrier at the end
// of the region (the region returns only when every explicit task has
// completed). It returns the region's aggregated runtime statistics.
//
// Nested Parallel calls are not supported (the BOTS benchmarks do not
// use nested parallel regions); use tasks for nested parallelism.
func Parallel(n int, body func(*Context), opts ...TeamOpt) *Stats {
	if n < 1 {
		n = 1
	}
	tm, implicit := newTeam(n, opts)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := tm.workers[i]
		it := implicit[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tm.pinWorkers {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			w.cur = it
			func() {
				defer func() {
					if r := recover(); r != nil {
						tm.recordPanic(r)
					}
				}()
				it.ctx = Context{w: w, task: it}
				body(&it.ctx)
			}()
			// Join the final barrier even if the body panicked, so
			// the rest of the team is not wedged waiting for us.
			tm.barrier(w)
			w.publish()
		}()
	}
	wg.Wait()
	st := tm.shutdown(implicit)
	if tm.panicVal != nil {
		panic(tm.panicVal)
	}
	return st
}

// newTeam builds the team structure shared by Parallel and
// NewPersistentTeam: n workers with their predicate closures, the
// initialized scheduler, and one implicit (depth-0) task per worker
// drawn from the global pool.
func newTeam(n int, opts []TeamOpt) (*Team, []*task) {
	cfg := teamConfig{cutoff: NoCutoff{}}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.sched == nil {
		s, err := NewScheduler(DefaultScheduler)
		if err != nil {
			panic(err) // the default is registered by this package
		}
		cfg.sched = s
	}
	tm := &Team{
		cutoff:     cfg.cutoff,
		sched:      cfg.sched,
		rec:        cfg.rec,
		fr:         cfg.fr,
		pinWorkers: cfg.pin,
		doorbell:   make(chan struct{}, n),
		wsSingles:  make(map[int64]bool),
		wsLoops:    make(map[int64]*loopState),
		wsReduces:  make(map[int64]bool),
	}
	tm.barBells[0] = make(chan struct{})
	tm.barBells[1] = make(chan struct{})
	tm.sched.Init(n)
	tm.workers = make([]*worker, n)
	implicit := make([]*task, n)
	for i := 0; i < n; i++ {
		w := &worker{id: i, team: tm, wakeCh: make(chan struct{}, 1)}
		w.freeTasks, w.limbo, w.graced = w.freeBuf[:0], w.limboBuf[0][:0], w.limboBuf[1][:0]
		w.predFn = func(c *task) bool { return c.isDescendantOf(w.predConstraint) }
		if cfg.fr != nil {
			w.events = cfg.fr.Writer(i)
		}
		tm.workers[i] = w
		it := w.newTask()
		it.team = tm
		it.depth = 0
		if tm.rec != nil {
			it.node = tm.rec.Root()
		}
		implicit[i] = it
	}
	return tm, implicit
}

// shutdown finalizes a team after every worker goroutine has joined:
// no thief or waiter can hold a task reference anymore, so the team's
// tasks recycle into the global pool (pool.go) — including on the
// panic path. Returns the final aggregated stats.
func (tm *Team) shutdown(implicit []*task) *Stats {
	tm.sched.Fini()
	if regionEndHook != nil {
		regionEndHook(tm)
	}
	for _, w := range tm.workers {
		w.releaseTasks()
	}
	for _, it := range implicit {
		it.reset()
		taskPool.Put(it)
	}
	return tm.aggregateStats()
}

// regionEndHook, when non-nil, observes each team after its final
// barrier and before task recycling. Tests use it to assert region
// invariants (e.g. the live-task count returning to zero).
var regionEndHook func(*Team)

// barrierSpinRounds is the bounded spin budget: consecutive empty
// probes a worker makes at a barrier before it parks on the team
// doorbell. Short enough that an idle worker stops burning its core
// (and stops hammering other workers' queue tops with failing steal
// CASes) almost immediately; long enough to ride out the common
// task-about-to-be-pushed window without a park/wake round trip.
const barrierSpinRounds = 32

// barrier is the team barrier: a scheduling point at which arriving
// workers execute queued tasks (from any queue, unconstrained) until
// every worker has arrived and no live task remains, as OpenMP
// requires of barriers.
//
// Idle protocol (bounded spin → park): after barrierSpinRounds empty
// probes the worker registers in idleWaiters, re-probes once, and
// blocks on the doorbell and this generation's barrier bell. The
// re-probe after registration is what makes the park lose no wakeups:
// an enqueuer writes its queue before loading idleWaiters, and a
// parker increments idleWaiters before reading the queues — both
// through sequentially-consistent atomics — so either the parker's
// re-probe sees the task or the enqueuer sees the registration and
// rings. Barrier completion closes the generation's bell, which
// releases every parked peer at once; a closed channel cannot be
// drained by workers that already advanced to the next generation,
// which is why completion does not use doorbell tokens (a bounded
// token supply can be absorbed by the next generation's own spin→park
// cycles, starving a still-parked worker of the old one).
func (tm *Team) barrier(w *worker) {
	w.stats.barriers.Add(1)
	n := int64(len(tm.workers))
	gen := tm.barGen.Load()
	bell := tm.barBells[gen&1]
	tm.barArrived.Add(1)
	idle := 0
	for tm.barGen.Load() == gen {
		if w.runOne(nil) {
			idle = 0
			continue
		}
		if tm.barArrived.Load() == n && tm.live() == 0 {
			if tm.barArrived.CompareAndSwap(n, 0) {
				// Re-arm the next generation's bell before publishing the
				// generation change: a worker parks on barBells[g&1] only
				// after loading barGen == g, so it can never observe the
				// slot mid-recycle. Closing the current bell then wakes
				// every generation-gen parker, no matter how many.
				tm.barBells[(gen+1)&1] = make(chan struct{})
				tm.barGen.Add(1)
				close(bell)
			}
			continue
		}
		idle++
		if idle < barrierSpinRounds {
			if idle > 4 {
				runtime.Gosched()
			}
			continue
		}
		// Spin budget exhausted: park until an enqueue rings or the
		// barrier completion closes the bell. Register first, then
		// re-check every wake condition (runnable task, completable or
		// completed barrier) so no concurrent wake can be missed. A
		// task found by the re-check runs after deregistering, so a
		// registered worker never executes (see publish).
		w.publish()
		tm.idleWaiters.Add(1)
		if t := w.pick(nil); t != nil || tm.barGen.Load() != gen ||
			(tm.barArrived.Load() == n && tm.live() == 0) {
			tm.idleWaiters.Add(-1)
			if t != nil {
				w.execute(t)
			}
			idle = 0
			continue
		}
		w.stats.idleParks.Add(1) // counted only when the worker truly blocks
		w.park(tm.doorbell, bell)
		tm.idleWaiters.Add(-1)
		idle = 0
	}
}

// park blocks w until a token arrives on ch or bell is closed. The
// idle protocol parks on the team doorbell (task enqueue, submission,
// shutdown) and a barrier bell (completion broadcast; nil when none
// applies, e.g. the persistent team's serve loop); a condition wait
// parks on w's wake channel with a nil bell. Wrapped in
// flight-recorder park/wake events when a recorder is attached (park
// carries the live-task count, wake the park duration in ns); the
// park is published before blocking, so a stall dump ends in it.
func (w *worker) park(ch, bell chan struct{}) {
	ev := w.events
	if ev == nil {
		select {
		case <-ch:
		case <-bell:
		}
		return
	}
	ev.Record(obs.EvPark, w.team.live())
	ev.Flush()
	t0 := time.Now()
	select {
	case <-ch:
	case <-bell:
	}
	ev.Record(obs.EvWake, int64(time.Since(t0)))
}

// publish makes w's owner-only records visible to other goroutines:
// its plain task counters (publishCounts) and its staged
// flight-recorder events. Workers call it before registering as
// parked (idleWaiters, waitParkers) and when they exit. A registered
// worker only re-probes and blocks, never executes, so every task a
// worker counted by ParkedWorkers has run is already visible to
// Snapshot and counted in Stats.
func (w *worker) publish() {
	w.publishCounts()
	if ev := w.events; ev != nil {
		ev.Flush()
	}
}

// ring wakes one idle-parked worker, if any. Called after every task
// enqueue (see worker.enqueue) and every submission. The
// load-then-send is cheap enough for the spawn hot path: with no
// parker registered it is a single atomic load.
func (tm *Team) ring() {
	if tm.idleWaiters.Load() > 0 {
		select {
		case tm.doorbell <- struct{}{}:
		default:
		}
	}
}

// ringAll deposits one doorbell token per worker — a bounded one-shot
// wake used by persistent-team shutdown (workers re-check `closed`
// and exit, never re-park) and by tests. Barrier completion does NOT
// use it: its tokens can be absorbed by workers spinning through
// later park cycles, so barriers broadcast by closing barBells
// instead (see barrier).
func (tm *Team) ringAll() {
	for range tm.workers {
		select {
		case tm.doorbell <- struct{}{}:
		default:
		}
	}
}

// waitAny is the waitTask registration of a waiter that is not parked
// in a particular task's taskwait (Future.Wait, Taskgroup drain).
// Only its address is used.
var waitAny = new(task)

// wake deposits w's wake token. The channel has capacity one and only
// w receives from it, so a token can be neither lost (a full buffer
// already holds one) nor absorbed by another worker.
func (w *worker) wake() {
	select {
	case w.wakeCh <- struct{}{}:
	default:
	}
}

// wakeWaiters wakes every worker registered in a condition wait. With
// none registered it is a single atomic load. Callers: a taskgroup
// emptying, a future completing, and every enqueue — a parked waiter
// may be the only worker allowed to run the new task (a descendant of
// the tied task it is suspended in, or a dependence-released task),
// so new work re-polls the waiters as it rings idle workers. A
// taskwait's own completion does not come through here: finish wakes
// the one worker parked in that parent.
func (tm *Team) wakeWaiters() {
	if tm.waitParkers.Load() == 0 {
		return
	}
	for _, w := range tm.workers {
		if w.waitTask.Load() != nil {
			w.wake()
		}
	}
}

// waitPark blocks w in a condition wait until it is woken, unless
// after registration cond() already holds or a task is runnable under
// constraint — in which case that task is executed instead. key is
// the task whose taskwait this is, or waitAny. Callers loop around it
// re-checking their own condition: a wake proves only that something
// happened.
//
// No-lost-wakeup argument (all atomics are sequentially consistent).
// The waiter drains its channel (a token from before registration is
// stale by definition), stores waitTask, increments waitParkers, and
// only then re-checks cond and re-probes the queues. A completer
// changes the waited-on state — pending reaching zero, done, the
// group emptying, a task pushed — and only then loads waitTask (the
// targeted wake in task.finish) or waitParkers and waitTask
// (wakeWaiters). If the waiter's re-check missed the change, the
// change is ordered after the re-check, so the completer's loads are
// ordered after the registration: it sees the waiter and deposits a
// token. The token sits in a channel only this worker reads, so it is
// still there when the waiter blocks, however many other waiters park
// and wake in between; the per-completion fresh channel the old
// shared bell needed for that property is gone. The targeted wake
// compares waitTask with the parent by address only — it never
// dereferences the parent, which may already be retired — and a stale
// match (the struct reused for a task this worker now waits in) costs
// one spurious wake.
func (w *worker) waitPark(key, constraint *task, cond func() bool) {
	tm := w.team
	select {
	case <-w.wakeCh:
	default:
	}
	w.publish()
	w.waitTask.Store(key)
	tm.waitParkers.Add(1)
	var t *task
	if !cond() {
		if t = w.pick(constraint); t == nil {
			w.park(w.wakeCh, nil)
		}
	}
	tm.waitParkers.Add(-1)
	w.waitTask.Store(nil)
	if t != nil {
		w.execute(t)
	}
}

// runOne tries to execute one ready task, honouring the OpenMP task
// scheduling constraint: when constraint is non-nil (a suspended tied
// task), only descendants of that task may run on this thread. It
// returns true if a task was executed.
func (w *worker) runOne(constraint *task) bool {
	t := w.pick(constraint)
	if t == nil {
		return false
	}
	w.execute(t)
	return true
}

// pick takes one ready task admissible under constraint, or nil.
//
// The pick order is the scheduler's: local area first (priority
// queue, then own queue under the scheduler's discipline), then a
// steal. The runtime only counts — every placement decision lives in
// the Scheduler.
func (w *worker) pick(constraint *task) *task {
	var pred func(*task) bool
	if constraint != nil {
		// Reuse the worker's prebuilt predicate closure instead of
		// allocating one per call; predConstraint is only read inside
		// the synchronous scheduler calls below, so a nested pick
		// (from a task body suspended deeper) may freely overwrite it.
		w.predConstraint = constraint
		pred = w.predFn
	}
	sched := w.team.sched
	t := sched.PopLocal(w.id, pred)
	if t == nil && len(w.team.workers) > 1 {
		// Consult the work-advertisement word before sweeping victims:
		// when no other worker advertises queued work, skip the steal
		// attempt entirely — no counter churn, no remote cache-line
		// probes — and let the caller proceed to its park. Liveness is
		// preserved because every Push sets the advertisement before
		// the doorbell ring, and every parker re-probes after
		// registering (see advMask and barrier).
		if sched.HasStealableWork(w.id) {
			w.stats.stealAttempts.Add(1)
			if pred != nil {
				// A constrained steal applies pred to tasks read from
				// possibly stale slots: the section limbo batches wait
				// out (pool.go). PopLocal is outside it — it applies
				// pred only to tasks it has dequeued or holds under a
				// lock, which are live.
				w.quiesce.Add(1)
			}
			t = sched.Steal(w.id, pred)
			if pred != nil {
				w.quiesce.Add(1)
			}
			if t == nil {
				w.stats.stealFails.Add(1)
			} else if ev := w.events; ev != nil {
				ev.Record(obs.EvSteal, int64(t.depth))
			}
		}
	}
	return t
}

// execute runs task t to completion on w (tasks never migrate once
// started: tied semantics are the baseline, and untied tasks differ
// only in their scheduling-point flexibility). A panic in the task
// body is contained: completion bookkeeping still runs (so waiters
// and barriers are not wedged), the first panic value is recorded,
// and Parallel re-raises it after the region drains.
func (w *worker) execute(t *task) {
	if t.creator != w {
		w.stats.tasksStolen.Add(1)
	}
	t.mustBeLive()
	prev := w.cur
	w.cur = t
	defer func() {
		if r := recover(); r != nil {
			w.team.recordPanic(r)
		}
		t.finish(w)
		w.cur = prev
	}()
	t.ctx = Context{w: w, task: t}
	t.run(&t.ctx)
}

// recordPanic stores the first panic raised by any task or region
// body of the team.
func (tm *Team) recordPanic(v any) {
	tm.panicMu.Lock()
	if tm.panicVal == nil {
		tm.panicVal = v
	}
	tm.panicMu.Unlock()
}
