package omp

import "sync"

// Task recycling. The BOTS paper's central claim is that task-runtime
// overheads — creation, queuing, stealing — decide which configuration
// wins, and on this runtime the dominant creation cost was the
// per-task heap allocation. A finished task struct is reused through
// one of four tiers, chosen by who may still hold a pointer to it:
//
//  1. Immediate (free list). An undeferred task that never acquired a
//     deferred descendant is reachable only from its creator's stack:
//     finishInline resets it and pushes it on the worker's free list.
//     Under the runtime cut-offs (maxtasks/maxdepth/adaptive) the vast
//     majority of tasks take exactly this path.
//
//  2. In-region, after a grace period (limbo). Every other task — all
//     deferred tasks, and undeferred tasks with deferred descendants —
//     is *shared*: other workers may hold its pointer. Two kinds of
//     foreign reader exist, and each is closed off separately:
//
//     Stale slot reads. A thief in deque.stealIf reads a ring slot,
//     and when it carries a constraint predicate it dereferences what
//     it read (isDescendantOf walks the task's parent chain) before
//     its CAS on top tells it whether the slot was still live. Every
//     worker brackets that section — and only that section: a
//     constrained Steal — with two increments of its quiesce counter
//     (odd while inside). A finished task goes to the finishing
//     worker's open limbo batch; closing the batch snapshots every
//     other worker's counter, and the batch is reset and moved to the
//     free list once each of them is seen outside the section it was
//     in at the snapshot (the snapshot was even, or the counter has
//     moved since). A section that starts after a task finished
//     cannot reach it: the pointer a thief reads at index top was
//     queued at some instant after the thief loaded top, so
//     everything a section can dereference finished — if at all —
//     after the section began. Sections are rare (constrained steals
//     are the slow path of a tied taskwait) and short, so a batch
//     normally passes at the moment it closes.
//
//     Parent-chain walks from live descendants. The walk above, and a
//     finishing child's decrement of parent.pending, dereference the
//     ancestors of a *live* task for as long as it lives — no grace
//     period bounds that. So only fully-strict tasks enter limbo: a
//     task that finished with pending == 0 and whose children all
//     finished strict. By induction every descendant of such a task
//     finished before it did, hence no live task has it as an
//     ancestor. A task that finishes non-strict (it returned without
//     taskwait, or its body panicked, with children outstanding)
//     stays on tier 3 and sets its parent's leaky flag *before* it
//     decrements the parent's pending count; the parent's finish runs
//     after observing pending == 0, therefore after that store, and
//     takes tier 3 as well — the mark climbs as far as the non-strict
//     subtree is reachable. Every taskwait-synchronised BOTS kernel
//     is fully strict.
//
//     The visible flag extends tier 2 to undeferred tasks: creation
//     marks the parent of each deferred task, and finishInline passes
//     the mark one level up, so every ancestor of a task that was
//     ever queued takes the grace period instead of tier 1.
//
//  3. At quiescence (grave). What the contract above cannot prove
//     safe keeps the bury-until-quiescence path: non-strict and leaky
//     tasks, and tasks with depend clauses — the parent's dependence
//     table names them as predecessors until the parent finishes, and
//     resolve() reads their succHead expecting the closed sentinel.
//     They are reset only when no reader can exist: at region end,
//     after every worker joined, and on a persistent team at the
//     quiescence flushes (persistent.go).
//
//  4. Across regions, the global sync.Pool, filled at region end from
//     every tier and by free-list overflow.
//
// reset writes poisonDepth into the struct; isDescendantOf, enqueue and
// execute panic if they ever meet it, so a reuse that raced a reader
// fails loudly instead of corrupting a walk.
const (
	// limboBatch is the size at which a worker's open limbo batch is
	// closed for its grace period.
	limboBatch = 64
	// maxWorkerFreeTasks bounds the per-worker free list. Two batches
	// is what a worker that finishes about as many tasks as it creates
	// ever holds; a worker that mostly runs tasks others created (a
	// thief) would otherwise hoard their structs while the creators
	// fall through to the allocator, so the excess goes to the global
	// pool, where they find it.
	maxWorkerFreeTasks = 2 * limboBatch
	// maxWorkerLimbo bounds the open batch while the closed one waits
	// on a worker stuck inside a section (descheduled mid-steal on an
	// oversubscribed host); beyond it finished tasks take tier 3.
	maxWorkerLimbo = 4096
	// maxWorkerGrave bounds the per-worker grave; beyond it, finished
	// shared tasks are simply dropped for the GC (a long region should
	// not pin every task it ever ran).
	maxWorkerGrave = 8192
)

// poisonDepth is the depth of a reset task: no live task has it, so
// meeting it on a walk or in a queue proves a reclaimed task was
// still reachable.
const poisonDepth = -1 << 30

// taskPool recycles task structs across parallel regions. Every task
// in the pool is reset. It has no New: newTask counts the misses.
var taskPool sync.Pool

// depTabPool recycles per-parent dependence tables (with their entry
// free lists) across tasks and regions. Safe to Put mid-region: a
// parent's table is only ever touched by the thread executing the
// parent, and it is recycled when that parent finishes.
var depTabPool = sync.Pool{New: func() any {
	return &depTracker{entries: make(map[uintptr]*depEntry)}
}}

// skipGrace, when set, makes every limbo batch pass its grace period
// at once. Test-only: the reclamation tests set it to prove they
// detect a reuse that races a reader.
var skipGrace bool

// newTask returns a reset task: from the worker's free list, else by
// closing the limbo batch early, else from the global pool.
func (w *worker) newTask() *task {
	if len(w.freeTasks) == 0 && len(w.limbo)+len(w.graced) > 0 {
		w.advanceLimbo()
	}
	if n := len(w.freeTasks) - 1; n >= 0 {
		t := w.freeTasks[n]
		w.freeTasks[n] = nil
		w.freeTasks = w.freeTasks[:n]
		return t
	}
	if t, _ := taskPool.Get().(*task); t != nil {
		return t
	}
	w.stats.taskPoolMisses.Add(1)
	return new(task)
}

// recycle resets a never-shared task and returns it to the worker's
// free list (tier 1). Caller guarantees no other goroutine can hold a
// reference (the task was never enqueued and has no deferred
// descendants).
func (w *worker) recycle(t *task) {
	t.reset()
	w.free(t)
}

// free pushes a reset task on the free list, overflowing to the
// global pool.
func (w *worker) free(t *task) {
	if len(w.freeTasks) < maxWorkerFreeTasks {
		w.freeTasks = append(w.freeTasks, t)
	} else {
		taskPool.Put(t)
	}
}

// retire queues a finished, fully-strict shared task for reuse after
// a grace period (tier 2). The task is NOT reset here: a thief inside
// a section may still be walking it.
func (w *worker) retire(t *task) {
	if len(w.limbo) >= maxWorkerLimbo {
		w.bury(t)
		return
	}
	w.limbo = append(w.limbo, t)
	if len(w.limbo)%limboBatch == 0 {
		w.advanceLimbo()
	}
}

// advanceLimbo moves the limbo pipeline one step: recycle the closed
// batch if its grace period has elapsed, then close the open batch —
// which, with no worker inside a section, passes on the spot.
func (w *worker) advanceLimbo() {
	if len(w.graced) > 0 && !w.recycleGraced() {
		return
	}
	if len(w.limbo) == 0 {
		return
	}
	w.limbo, w.graced = w.graced, w.limbo
	if w.gracedAt == nil {
		w.gracedAt = make([]uint64, len(w.team.workers))
	}
	for i, o := range w.team.workers {
		w.gracedAt[i] = o.quiesce.Load()
	}
	w.recycleGraced()
}

// recycleGraced resets the closed batch onto the free list if every
// other worker has left the section it was in when the batch closed,
// and reports whether it did. w itself is never inside a section
// here: sections end before the task they picked executes.
func (w *worker) recycleGraced() bool {
	if !skipGrace {
		for i, o := range w.team.workers {
			if at := w.gracedAt[i]; o != w && at&1 == 1 && o.quiesce.Load() == at {
				return false
			}
		}
	}
	for i, t := range w.graced {
		t.reset()
		w.free(t)
		w.graced[i] = nil
	}
	w.stats.tasksReclaimed.Add(int64(len(w.graced)))
	w.graced = w.graced[:0]
	return true
}

// bury records a finished shared task for recycling at quiescence
// (tier 3). The task is NOT reset here: live descendants, stale thief
// reads and the parent's dependence table may still inspect it.
func (w *worker) bury(t *task) {
	if len(w.grave) < maxWorkerGrave {
		w.grave = append(w.grave, t)
	}
}

// maxWorkerFutGrave bounds the per-worker future-cell grave; beyond
// it, cells are simply dropped for the GC, like task-grave overflow.
const maxWorkerFutGrave = 8192

// buryFuture records a Spawn-created cell for recycling at region (or
// submission) quiescence. Owner-only: Spawn runs on the creating
// worker. The cell is buried at creation, not completion, because
// unlike tasks the cell has no finish hook on the worker that would
// see it again — and the recycler skips cells that never completed.
func (w *worker) buryFuture(f futCell) {
	if len(w.futGrave) < maxWorkerFutGrave {
		w.futGrave = append(w.futGrave, f)
	}
}

// flushGraves resets everything buried on w and hands the tasks to
// put. Only legal at quiescence: no live task, no thief, no waiter —
// nothing can reach a buried task or have a Future.Wait in flight.
func (w *worker) flushGraves(put func(*task)) {
	for i, t := range w.grave {
		t.reset()
		put(t)
		w.grave[i] = nil
	}
	w.grave = w.grave[:0]
	for i, f := range w.futGrave {
		f.tryRecycle()
		w.futGrave[i] = nil
	}
	w.futGrave = w.futGrave[:0]
}

// releaseTasks drains the worker's recycling tiers into the global
// pool. Called from shutdown after every worker goroutine has joined,
// when no task of the region can be referenced anymore.
func (w *worker) releaseTasks() {
	for _, t := range w.freeTasks {
		taskPool.Put(t) // already reset
	}
	for _, batch := range [][]*task{w.limbo, w.graced} {
		for _, t := range batch {
			t.reset()
			taskPool.Put(t)
		}
	}
	w.flushGraves(func(t *task) { taskPool.Put(t) })
	w.freeTasks, w.limbo, w.graced, w.grave, w.futGrave = nil, nil, nil, nil, nil
}

// reset zeroes a task for reuse. Atomics are stored through, so the
// struct is never copied, and only when they are not already zero: an
// atomic store is a locked instruction, and reset runs once per task.
// A strict task — every task that reaches limbo — has pending 0 and
// leaky false. Only a task with depend clauses ever touches depsLeft
// and succHead (releaseSuccessors returns early for the others, and
// resolve only links predecessors that have deps); a finished one
// holds the closed sentinel, and storing nil re-opens the list for the
// next life. TestResetLeavesNoState pins the result.
func (t *task) reset() {
	t.body = nil
	t.cell = nil
	t.parent = nil
	t.team = nil
	t.creator = nil
	t.depth = poisonDepth
	t.untied = false
	t.visible = false
	if t.leaky.Load() {
		t.leaky.Store(false)
	}
	t.priority = 0
	if t.pending.Load() != 0 {
		t.pending.Store(0)
	}
	t.group = nil
	t.node = nil
	if t.hasDeps {
		t.hasDeps = false
		t.depsLeft.Store(0)
		t.succHead.Store(nil)
	}
	t.depTab = nil
	t.ctx = Context{}
}

// maxWorkerFreeSuccs bounds the per-worker successor-node free list
// (see depend.go's succNode; nodes flow from the creating worker's
// list into a predecessor's successor chain and back onto the
// releasing worker's list, so the lists balance in steady state).
const maxWorkerFreeSuccs = 256

// newSuccNode returns a successor-list node for task t, recycled from
// the worker's free list when possible.
func (w *worker) newSuccNode(t *task) *succNode {
	if n := len(w.freeSuccs) - 1; n >= 0 {
		sn := w.freeSuccs[n]
		w.freeSuccs[n] = nil
		w.freeSuccs = w.freeSuccs[:n]
		sn.t = t
		return sn
	}
	return &succNode{t: t}
}

// freeSuccNode clears and recycles a successor node onto the worker's
// free list. Safe mid-region: a node is freed only by the single
// goroutine that removed it from a successor list (or that lost the
// publish CAS and still owns it), so no stale reader can hold it.
func (w *worker) freeSuccNode(n *succNode) {
	n.t, n.next = nil, nil
	if len(w.freeSuccs) < maxWorkerFreeSuccs {
		w.freeSuccs = append(w.freeSuccs, n)
	}
}

// newDepTab returns a cleared dependence table for a parent task.
func newDepTab() *depTracker {
	return depTabPool.Get().(*depTracker)
}

// recycleDepTab clears a finished parent's dependence table and
// returns it to the pool. The entry structs are kept on the tracker's
// own free list, so a reused table allocates no entries either.
func recycleDepTab(tr *depTracker) {
	for a, e := range tr.entries {
		e.lastOut = nil
		for i := range e.readers {
			e.readers[i] = nil // don't pin finished tasks across regions
		}
		e.readers = e.readers[:0]
		tr.free = append(tr.free, e)
		delete(tr.entries, a)
	}
	depTabPool.Put(tr)
}
