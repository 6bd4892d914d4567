package omp

import (
	"fmt"
	"sync/atomic"
)

// Stats aggregates per-team runtime counters. All counts are totals
// across the team's workers for one parallel region.
type Stats struct {
	// TasksCreated is the number of deferred tasks pushed to deques.
	TasksCreated int64
	// TasksUndeferred is the number of tasks executed immediately on
	// the encountering thread because of an if(false) clause or a
	// runtime cut-off decision.
	TasksUndeferred int64
	// TasksStolen is the number of tasks executed by a worker other
	// than their creator.
	TasksStolen int64
	// StealAttempts is the number of times a worker, finding nothing
	// admissible in its local queue area, asked the scheduler for
	// another worker's task; StealFails counts the attempts that came
	// back empty. Schedulers that maintain a work-advertisement word
	// (all built-ins) suppress attempts entirely while no other worker
	// advertises queued work, so on an idle team both counters stay
	// quiet instead of churning once per spin probe; under a pool
	// scheduler (one shared queue, nothing worker-local to steal) no
	// attempt is ever made, since PopLocal already reaches every task.
	StealAttempts, StealFails int64
	// IdleParks is the number of times a worker exhausted its bounded
	// spin budget at a team barrier and parked on the team doorbell
	// (woken by the next task enqueue or by barrier completion). Each
	// park counts once; spinning probes do not count.
	IdleParks int64
	// Taskwaits is the number of taskwait operations executed.
	Taskwaits int64
	// TaskwaitParks is the number of times a taskwait had to park
	// (no runnable task satisfied the scheduling constraint).
	TaskwaitParks int64
	// Barriers is the number of team barriers executed (per worker
	// arrival; a single barrier of an n-thread team counts n).
	Barriers int64
	// DepEdges is the number of dependence edges resolved at task
	// creation (predecessors found through In/Out/InOut clauses,
	// whether or not the predecessor was still running).
	DepEdges int64
	// TasksDepDeferred is the number of tasks held back at creation
	// because at least one predecessor had not finished.
	TasksDepDeferred int64
	// DepReleases is the number of held tasks enqueued by the
	// completion of their last unfinished predecessor.
	DepReleases int64
	// FutureWaits is the number of Future.Wait operations that had to
	// block (the producing task was not yet done).
	FutureWaits int64
	// TasksReclaimed is the exact number of finished shared tasks
	// whose struct was reset for reuse inside the region, after a
	// grace period (pool.go, tier 2). TaskPoolMisses is the exact
	// number of task structs that had to be heap-allocated because
	// the worker's free list, its limbo and the global pool were all
	// empty. Together they say whether a sustained region runs on
	// recycled tasks: reclaimed ≈ created and misses bounded by a few
	// limbo batches per worker.
	TasksReclaimed, TaskPoolMisses int64
	// CapturedBytes is the total captured-environment (firstprivate)
	// bytes declared at task creation.
	CapturedBytes int64
	// WorkUnits is the total application-reported work.
	WorkUnits int64
	// PrivateWrites and SharedWrites are application-reported write
	// counts (Table II accounting).
	PrivateWrites, SharedWrites int64
	// SchedulerSeed is the region's victim-selection seed, for
	// schedulers whose steal order is randomized (the deque family
	// mixes a process-wide region sequence number into it, so repeated
	// regions explore different steal orders). Zero for schedulers
	// without randomized decisions. Surfaced so a `bots -json` record
	// pins the steal order the run explored.
	SchedulerSeed uint64
}

// TotalTasks returns all tasks that passed through a task directive,
// deferred or not.
func (s *Stats) TotalTasks() int64 { return s.TasksCreated + s.TasksUndeferred }

func (s *Stats) String() string {
	out := fmt.Sprintf(
		"tasks=%d (undeferred %d, stolen %d) taskwaits=%d parks=%d barriers=%d captured=%dB work=%d",
		s.TotalTasks(), s.TasksUndeferred, s.TasksStolen, s.Taskwaits,
		s.TaskwaitParks, s.Barriers, s.CapturedBytes, s.WorkUnits)
	if s.StealAttempts > 0 {
		out += fmt.Sprintf(" stealattempts=%d (failed %d) idleparks=%d",
			s.StealAttempts, s.StealFails, s.IdleParks)
	}
	if s.DepEdges > 0 || s.TasksDepDeferred > 0 {
		out += fmt.Sprintf(" deps=%d (deferred %d, released %d)",
			s.DepEdges, s.TasksDepDeferred, s.DepReleases)
	}
	if s.FutureWaits > 0 {
		out += fmt.Sprintf(" futurewaits=%d", s.FutureWaits)
	}
	if s.TasksReclaimed > 0 || s.TaskPoolMisses > 0 {
		out += fmt.Sprintf(" reclaimed=%d poolmisses=%d", s.TasksReclaimed, s.TaskPoolMisses)
	}
	if s.SchedulerSeed != 0 {
		out += fmt.Sprintf(" schedseed=%#x", s.SchedulerSeed)
	}
	return out
}

// Sub returns the field-wise difference s - prev: the counters
// accumulated between the two snapshots. The per-submission stats of a
// persistent team are deltas of this form (see PersistentTeam). The
// SchedulerSeed is an identity, not a counter, and is carried over
// from s unchanged.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		TasksCreated:     s.TasksCreated - prev.TasksCreated,
		TasksUndeferred:  s.TasksUndeferred - prev.TasksUndeferred,
		TasksStolen:      s.TasksStolen - prev.TasksStolen,
		StealAttempts:    s.StealAttempts - prev.StealAttempts,
		StealFails:       s.StealFails - prev.StealFails,
		IdleParks:        s.IdleParks - prev.IdleParks,
		Taskwaits:        s.Taskwaits - prev.Taskwaits,
		TaskwaitParks:    s.TaskwaitParks - prev.TaskwaitParks,
		Barriers:         s.Barriers - prev.Barriers,
		DepEdges:         s.DepEdges - prev.DepEdges,
		TasksDepDeferred: s.TasksDepDeferred - prev.TasksDepDeferred,
		DepReleases:      s.DepReleases - prev.DepReleases,
		FutureWaits:      s.FutureWaits - prev.FutureWaits,
		TasksReclaimed:   s.TasksReclaimed - prev.TasksReclaimed,
		TaskPoolMisses:   s.TaskPoolMisses - prev.TaskPoolMisses,
		CapturedBytes:    s.CapturedBytes - prev.CapturedBytes,
		WorkUnits:        s.WorkUnits - prev.WorkUnits,
		PrivateWrites:    s.PrivateWrites - prev.PrivateWrites,
		SharedWrites:     s.SharedWrites - prev.SharedWrites,
		SchedulerSeed:    s.SchedulerSeed,
	}
}

// workerStats holds one worker's counters, padded to a cache line to
// avoid false sharing between adjacent workers in the team slice.
//
// The counters are atomic so a snapshot can be taken while workers
// run: a persistent team serves submissions from long-parked workers
// and its observers (latency monitors, the serve report) read stats
// mid-flight, which with plain fields would be a data race. Each
// counter has a single writer (its worker) — the atomicity buys
// race-free remote reads, not cross-worker aggregation.
//
// Rare counters (steals, parks, barriers, dependence and future
// events, pool counts) are bumped here with an uncontended add. The
// seven that every task bumps are plain fields in the worker
// (taskCounts), and this block holds copies the owner stores
// (publishCounts) before every park registration, at worker exit, and
// in finish before a grouped task leaves its group. Region-end stats
// are therefore exact, and so is a serialized SubmitWait delta: every
// member of the submission's group published before the leave that
// completed it. A snapshot taken while workers run lags each worker by
// what it counted since its last copy — on a persistent team, the
// counts of the tasks it is running or has suspended; in a Parallel
// region, everything since it last parked.
//
// liveCreated and liveFinished are the team's live-task count, split
// by writer: tasks this worker made live (deferred and undeferred
// spawns, submission roots) and tasks it finished. Both only grow;
// Team.live sums them. They are not surfaced in Stats.
type workerStats struct {
	liveCreated      atomic.Int64
	liveFinished     atomic.Int64
	tasksCreated     atomic.Int64
	tasksUndeferred  atomic.Int64
	tasksStolen      atomic.Int64
	stealAttempts    atomic.Int64
	stealFails       atomic.Int64
	idleParks        atomic.Int64
	taskwaits        atomic.Int64
	taskwaitParks    atomic.Int64
	barriers         atomic.Int64
	depEdges         atomic.Int64
	tasksDepDeferred atomic.Int64
	depReleases      atomic.Int64
	futureWaits      atomic.Int64
	tasksReclaimed   atomic.Int64
	taskPoolMisses   atomic.Int64
	capturedBytes    atomic.Int64
	workUnits        atomic.Int64
	privateWrites    atomic.Int64
	sharedWrites     atomic.Int64
	_                [24]byte // pad to a multiple of 64 bytes
}

// taskCounts are the counters every task bumps, as plain fields of the
// worker that only its owner reads or writes: a fine-grained task
// bumped up to seven of them, and an uncontended locked add costs
// about 7 ns where the store buffer hides a plain one (DESIGN §12.1).
// workerStats holds their published copies.
type taskCounts struct {
	tasksCreated, tasksUndeferred, taskwaits int64
	capturedBytes, workUnits                 int64
	privateWrites, sharedWrites              int64
}

// publishCounts stores w's plain task counters into their workerStats
// copies. Owner only. A copy that already holds its value is not
// stored again: a sequentially consistent store is itself a locked
// instruction on amd64, and on a persistent team this runs per task.
func (w *worker) publishCounts() {
	c, s := &w.counts, &w.stats
	storeIfChanged(&s.tasksCreated, c.tasksCreated)
	storeIfChanged(&s.tasksUndeferred, c.tasksUndeferred)
	storeIfChanged(&s.taskwaits, c.taskwaits)
	storeIfChanged(&s.capturedBytes, c.capturedBytes)
	storeIfChanged(&s.workUnits, c.workUnits)
	storeIfChanged(&s.privateWrites, c.privateWrites)
	storeIfChanged(&s.sharedWrites, c.sharedWrites)
}

func storeIfChanged(dst *atomic.Int64, v int64) {
	if dst.Load() != v {
		dst.Store(v)
	}
}

// live returns the number of tasks made live and not yet finished, or
// more. It sums every worker's finished count first and every worker's
// created count second. Each count only grows, and a task's creation
// is counted before its finish can be, so at every instant the team's
// finished total is at most its created total. Call t the instant
// between the two passes: the first pass read at most the finished
// total at t, the second at least the created total at t, so the result
// is at least the number of live tasks at t. A zero therefore proves an
// instant with no live task; a positive result may overstate the count
// while workers run, which every caller tolerates (DESIGN §9.5).
func (tm *Team) live() int64 {
	var finished, created int64
	for _, w := range tm.workers {
		finished += w.stats.liveFinished.Load()
	}
	for _, w := range tm.workers {
		created += w.stats.liveCreated.Load()
	}
	return created - finished
}

// snapshot returns a point-in-time copy of the team's aggregated
// counters. Safe to call from any goroutine at any time — all loads
// are atomic — including while every worker is running or parked
// mid-submission; a snapshot taken during execution is a consistent
// set of per-counter values, not a cross-counter atomic cut.
func (tm *Team) snapshot() Stats {
	s := Stats{SchedulerSeed: tm.sched.SchedulerSeed()}
	for i := range tm.workers {
		ws := &tm.workers[i].stats
		s.TasksCreated += ws.tasksCreated.Load()
		s.TasksUndeferred += ws.tasksUndeferred.Load()
		s.TasksStolen += ws.tasksStolen.Load()
		s.StealAttempts += ws.stealAttempts.Load()
		s.StealFails += ws.stealFails.Load()
		s.IdleParks += ws.idleParks.Load()
		s.Taskwaits += ws.taskwaits.Load()
		s.TaskwaitParks += ws.taskwaitParks.Load()
		s.Barriers += ws.barriers.Load()
		s.DepEdges += ws.depEdges.Load()
		s.TasksDepDeferred += ws.tasksDepDeferred.Load()
		s.DepReleases += ws.depReleases.Load()
		s.FutureWaits += ws.futureWaits.Load()
		s.TasksReclaimed += ws.tasksReclaimed.Load()
		s.TaskPoolMisses += ws.taskPoolMisses.Load()
		s.CapturedBytes += ws.capturedBytes.Load()
		s.WorkUnits += ws.workUnits.Load()
		s.PrivateWrites += ws.privateWrites.Load()
		s.SharedWrites += ws.sharedWrites.Load()
	}
	return s
}

func (tm *Team) aggregateStats() *Stats {
	s := tm.snapshot()
	return &s
}
