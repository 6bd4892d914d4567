// Package sim is a discrete-event simulator for work-stealing task
// schedulers. It replays a task graph recorded by internal/trace
// (from a real internal/omp execution) on an arbitrary number of
// virtual threads, reproducing the scheduling semantics of the omp
// runtime — a queue discipline per omp scheduler (work-first
// and breadth-first deques, the centralized shared queue, locality
// steal-half/last-victim stealing; Params.Scheduler), random-victim
// stealing, the OpenMP task scheduling constraint for tied tasks,
// undeferred (inline) tasks, dependence-deferred tasks (trace Deps
// edges hold a spawned task back until its predecessors complete) —
// together with a cost model for task-management overheads and shared
// memory bandwidth.
// Task priorities are replayed as ordinary tasks: priority is a
// scheduling hint that changes pick order, not the dependence
// structure, and the simulator's deques keep creation order.
//
// This is the substitution (see DESIGN.md) for the paper's 32-CPU
// Altix testbed: on a host with one core, wall-clock speedup curves
// are structurally flat, but the paper's Figures 3–5 are properties
// of the task graph, the scheduler and the memory system, all of
// which the simulator models explicitly. Simulated time is exact
// (event-driven, no sampling): the reported makespan for one virtual
// thread equals total work plus total overhead by construction.
//
// Determinism is per trace, not per process. Run is a pure function
// of (trace, threads, Params): the same recorded trace replays to the
// same Result bit for bit, in any process. Across versions, a replay
// under an integral cost model (integral WorkUnitNS and overheads,
// every simulated time an exactly represented integer) is
// bit-identical on any version that keeps TestReplayDigest's pinned
// digests; a non-integral one may differ only by rounding in the last
// bits (TestBandwidthGolden). Recording is not deterministic — the
// real runtime's steals shape the graph — so two processes that each
// record sort/untied or sparselu/dep-tied can get different traces,
// and different simulated steal counts, from the same source. Compare
// replays across versions on saved traces.
//
// Cost of a replay: every running worker's current segment sits once
// in one of two min-heaps of absolute end times, compute segments on
// the virtual clock and memory-bound ones on a memory clock that
// advances by dt/slowFactor per event. An event reads both heap tops,
// advances the clocks, pops every segment that ended and pushes the
// next segment of each worker it touched: O(log P) per segment it
// ends at P virtual threads, whatever the team size. A dispatch pass
// with nothing queued is O(1) (idle workers' failed victim draws are
// settled when they next look for work), and no allocation happens
// per event or per dependence edge.
package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"bots/internal/trace"
)

// Params is the simulator cost model.
type Params struct {
	// WorkUnitNS is the duration, in virtual nanoseconds, of one
	// application work unit (calibrated per benchmark from a serial
	// run: serial time / total work units).
	WorkUnitNS float64
	// SpawnNS is the creator-side overhead of deferring a task
	// (allocation, queue push).
	SpawnNS float64
	// InlineNS is the creator-side overhead of an undeferred task
	// (if-clause false or runtime cut-off): bookkeeping without a
	// queue operation. The gap between InlineNS and zero is exactly
	// the paper's distinction between the if-clause cut-off and the
	// manual cut-off (which creates no task at all).
	InlineNS float64
	// StealNS is the thief-side cost of a successful steal.
	StealNS float64
	// TaskwaitNS is the cost of executing a taskwait.
	TaskwaitNS float64
	// MemFraction is the fraction of task work that is bound by the
	// shared memory system (0 = pure compute, scales linearly;
	// 1 = pure memory traffic).
	MemFraction float64
	// BandwidthCap is the number of concurrently active workers the
	// memory system can sustain at full speed; with A active workers,
	// memory-bound work slows by max(1, A/BandwidthCap). Zero means
	// unlimited bandwidth.
	BandwidthCap float64
	// Scheduler names the queue discipline to replay under, matching
	// the omp scheduler vocabulary so simulated sweeps stay faithful per
	// policy ("" = workfirst):
	//
	//   - "workfirst": per-worker deques, LIFO own consumption, FIFO
	//     single-task steals from random victims.
	//   - "breadthfirst": as workfirst but the owner consumes its own
	//     deque FIFO (roughly creation order).
	//   - "centralized": one shared team FIFO; every spawn enqueues
	//     there and every worker dequeues from the front. There is no
	//     stealing (Steals stays 0) and no StealNS is charged; combine
	//     with QueueSerializeNS to cost the shared-queue contention.
	//     The real scheduler's MPMC-ring rework (omp §9.1) changed the
	//     queue's synchronization, not its discipline — same FIFO
	//     order, same constrained-scan reachability, still no steals —
	//     so this replay stays faithful to it; QueueSerializeNS now
	//     models only the mutex slow paths (overflow, tied scans)
	//     rather than every operation.
	//   - "locality": workfirst local order plus affinity stealing —
	//     thieves return to their last successful victim first and an
	//     unconstrained steal moves half the victim's backlog.
	Scheduler string
	// QueueSerializeNS, when positive, models a *central shared task
	// queue* instead of per-worker deques: every enqueue (deferred
	// spawn) and dequeue (task start) serializes through one lock,
	// occupying it for this long. The queue-architecture ablation
	// contrasts this with distributed deques (zero), reproducing the
	// classic result that a central queue collapses under fine-grained
	// task rates as threads grow.
	QueueSerializeNS float64
	// ThreadSwitch enables true untied-task migration: an untied task
	// suspended at a taskwait detaches from its worker's stack and,
	// once its children complete, may be resumed by any worker — the
	// OpenMP untied capability that the paper's §IV-C observes the
	// Intel 11.0 runtime did not implement (and which the real
	// internal/omp runtime, stack-bound like Intel's, cannot provide).
	// The simulator can, enabling the counterfactual study of what
	// thread switching would have bought.
	ThreadSwitch bool
	// SwitchNS is the cost of resuming a migrated continuation on a
	// new worker (cold stack/cache); only used with ThreadSwitch.
	SwitchNS float64
	// OnStart and OnComplete, when non-nil, observe the simulated
	// timeline: they are called with the task ID, the worker, and the
	// virtual time at which the task started/completed. Intended for
	// schedule visualization and debugging.
	OnStart    func(id int32, worker int, atNS float64)
	OnComplete func(id int32, worker int, atNS float64)
}

// DefaultOverheads returns Params with representative task-management
// costs (in ns) for a 2009-era runtime, leaving the application
// calibration fields zero.
func DefaultOverheads() Params {
	return Params{
		SpawnNS:    320,
		InlineNS:   110,
		StealNS:    450,
		TaskwaitNS: 90,
	}
}

// Result summarizes one simulated execution.
type Result struct {
	// Threads is the simulated team size.
	Threads int
	// MakespanNS is the simulated wall-clock time of the region.
	MakespanNS float64
	// SerialNS is the overhead-free serial time (total work ×
	// WorkUnitNS), the paper's speedup baseline.
	SerialNS float64
	// Speedup is SerialNS / MakespanNS.
	Speedup float64
	// Steals is the number of successful steals.
	Steals int64
	// Parks is the number of times a taskwait blocked with no
	// runnable task available under its scheduling constraint.
	Parks int64
	// Switches is the number of untied continuations resumed on a
	// worker (only non-zero with Params.ThreadSwitch).
	Switches int64
	// IdleNS is the total worker time spent idle or blocked.
	IdleNS float64
}

func (r Result) String() string {
	return fmt.Sprintf("threads=%d speedup=%.2f makespan=%.3fms steals=%d parks=%d",
		r.Threads, r.Speedup, r.MakespanNS/1e6, r.Steals, r.Parks)
}

// workerState is the mode of a virtual worker.
type workerState uint8

const (
	wIdle    workerState = iota // looking for work (instantaneous retry on availability)
	wRunning                    // executing a timed segment
	wBlocked                    // suspended in a taskwait, waiting for children
)

// frame is one entry of a worker's execution stack: a task instance
// in progress.
type frame struct {
	id        int32   // task ID in the trace
	evIdx     int     // next event to process
	doneWork  int64   // work units completed so far
	remaining float64 // base-ns remaining in the current segment
	memBound  bool    // current segment subject to the bandwidth model
	inWait    bool    // suspended at a taskwait
}

type vworker struct {
	id         int
	state      workerState
	stack      []frame
	dq         taskQueue // ready deque: bottom = newest, top = oldest
	rng        uint64
	lastVictim int // last successful steal victim (locality), or -1

	// synced is the state the team counters last saw for this worker
	// (see sim.sync); passMark is sim.idlePasses when the worker last
	// settled its idle RNG draws.
	synced   workerState
	passMark uint64
}

// discipline is the parsed Params.Scheduler queue discipline.
type discipline uint8

const (
	schedWorkFirst discipline = iota
	schedBreadthFirst
	schedCentralized
	schedLocality
)

// parseDiscipline maps an omp scheduler name onto the simulator's
// matching queue discipline. A parameterized form — workfirst(8) and
// friends, carrying a steal-batch size — resolves to its base name's
// discipline: the simulator models queue order and steal direction,
// not raid width, so every batch parameterization of one scheduler
// replays the same. Any other name errors: the four disciplines are
// omp's closed scheduler vocabulary, so a figure never describes a
// scheduler the simulator does not model.
func parseDiscipline(name string) (discipline, error) {
	if i := strings.IndexByte(name, '('); i > 0 && strings.HasSuffix(name, ")") {
		name = name[:i]
	}
	switch name {
	case "", "workfirst":
		return schedWorkFirst, nil
	case "breadthfirst":
		return schedBreadthFirst, nil
	case "centralized":
		return schedCentralized, nil
	case "locality":
		return schedLocality, nil
	}
	return 0, fmt.Errorf("sim: no queue discipline for scheduler %q (have workfirst/breadthfirst/centralized/locality)", name)
}

type sim struct {
	tr      *trace.Trace
	p       Params
	disc    discipline
	workers []*vworker

	// central is the shared team queue of the centralized discipline
	// (front = index 0, tasks spawn onto the back).
	central taskQueue
	// pending[i] = outstanding children of task i; waitingOn[i] =
	// worker blocked in task i's taskwait, or -1.
	pending   []int32
	waiterOf  []int32
	liveTasks int

	// Dependence state: depsLeft[i] counts unfinished predecessors of
	// task i (from trace Deps edges), its successors are
	// succList[succStart[i]:succStart[i+1]] in task order, and
	// depWaiting[i] marks a spawned task held back until its last
	// predecessor completes — mirroring the runtime's
	// deferred-on-dependence state.
	depsLeft   []int32
	succStart  []int32
	succList   []int32
	depWaiting []bool
	now        float64
	steals     int64
	parks      int64
	switches   int64
	idleNS     float64

	// Thread-switching state (Params.ThreadSwitch): suspended untied
	// continuations detached from worker stacks, and the subset whose
	// children have completed, ready to resume on any worker.
	suspended map[int32]frame
	readyCont []int32

	// queueFreeAt is the virtual time at which the central queue lock
	// becomes free (Params.QueueSerializeNS model).
	queueFreeAt float64

	// Event-loop bookkeeping, kept incrementally so that an event costs
	// O(log P) per segment it ends instead of walks over the whole team
	// and its deques.
	//
	// queued counts ready tasks in all deques and the central queue:
	// with none queued a thief can only fail. idle and active count
	// workers in wIdle and wRunning. idlePasses counts dispatch passes
	// in which nothing could be acquired — in each, every idle worker
	// would have drawn one victim and failed; those draws are settled
	// lazily (settleIdle) before the worker next looks for work.
	queued, idle, active int
	idlePasses           uint64
	// segs holds every running worker's current segment once, by kind,
	// keyed on its absolute end: compute segments on now, memory-bound
	// ones on memClock, the memory system's own clock, which advances
	// by dt/slowFactor per event so that a bandwidth stretch applies
	// per event as it happens. A running frame's remaining field keeps
	// the segment's length and is zeroed when the segment ends.
	segs     [2]segHeap
	memClock float64
}

// Segment kinds, indexing sim.segs.
const (
	compute     = 0
	memoryBound = 1
)

// segment is a running worker's current segment: the worker and the
// clock reading at which the segment ends.
type segment struct {
	end float64
	w   int32
}

// segHeap is a binary min-heap of segments on their end, in
// seg[:n]. Run sizes seg to the team, which bounds n, so no push
// allocates, and the heap's own writes store no pointer.
type segHeap struct {
	seg []segment
	n   int
}

func (h *segHeap) push(end float64, w int32) {
	q := h.seg
	i := h.n
	h.n++
	for i > 0 {
		p := (i - 1) / 2
		if q[p].end <= end {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = segment{end, w}
}

// popEnded pops every segment that ends within the 1e-9 finishing
// threshold of clock and appends its worker to done. A pop moves the
// root's hole down along smaller children to a leaf and sifts the
// last segment up from there: the last segment is a late one, so
// that costs one comparison per level instead of two.
func (h *segHeap) popEnded(clock float64, done []int32) []int32 {
	q := h.seg
	n := h.n
	for n > 0 && q[0].end-clock <= 1e-9 {
		done = append(done, q[0].w)
		n--
		last := q[n]
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && q[c+1].end < q[c].end {
				c++
			}
			q[i] = q[c]
			i = c
		}
		for i > 0 {
			p := (i - 1) / 2
			if q[p].end <= last.end {
				break
			}
			q[i] = q[p]
			i = p
		}
		q[i] = last
	}
	h.n = n
	return done
}

// queueAcquire returns the time an operation spends acquiring and
// holding the central queue at virtual time s.now, advancing the
// queue's busy horizon.
func (s *sim) queueAcquire() float64 {
	d := s.p.QueueSerializeNS
	if d <= 0 {
		return 0
	}
	wait := s.queueFreeAt - s.now
	if wait < 0 {
		wait = 0
	}
	s.queueFreeAt = s.now + wait + d
	return wait + d
}

// Run simulates tr on the given number of virtual threads. The team
// may not be smaller than the recording team (each implicit task
// needs its own thread); extra threads beyond tr.NumRoots start idle
// and participate by stealing. For faithful reproduction of
// worksharing distribution, record on a team of the same size.
func Run(tr *trace.Trace, threads int, p Params) (Result, error) {
	if threads < tr.NumRoots {
		return Result{}, fmt.Errorf("sim: trace has %d roots but simulating only %d threads; record the trace on a team of at most that size", tr.NumRoots, threads)
	}
	if p.WorkUnitNS <= 0 {
		p.WorkUnitNS = 1
	}
	disc, err := parseDiscipline(p.Scheduler)
	if err != nil {
		return Result{}, err
	}
	s := &sim{
		tr:         tr,
		p:          p,
		disc:       disc,
		pending:    make([]int32, len(tr.Tasks)),
		waiterOf:   make([]int32, len(tr.Tasks)),
		depsLeft:   make([]int32, len(tr.Tasks)),
		succStart:  make([]int32, len(tr.Tasks)+1),
		depWaiting: make([]bool, len(tr.Tasks)),
	}
	for i := range s.waiterOf {
		s.waiterOf[i] = -1
	}
	s.buildSuccs()
	s.workers = make([]*vworker, threads)
	s.segs = [2]segHeap{{seg: make([]segment, threads)}, {seg: make([]segment, threads)}}
	for i := 0; i < threads; i++ {
		// synced starts as wBlocked, a state no counter tracks, so the
		// sync below counts the worker as running or idle.
		w := &vworker{id: i, rng: uint64(i)*0x9e3779b97f4a7c15 + 1, lastVictim: -1, synced: wBlocked}
		s.workers[i] = w
		if i < tr.NumRoots {
			w.startTask(s, int32(i), false)
		} else {
			w.state = wIdle
		}
		s.sync(w)
	}
	s.liveTasks = len(tr.Tasks)
	if err := s.run(); err != nil {
		return Result{}, err
	}
	serial := float64(tr.TotalWork()) * p.WorkUnitNS
	res := Result{
		Threads:    threads,
		MakespanNS: s.now,
		SerialNS:   serial,
		Steals:     s.steals,
		Parks:      s.parks,
		Switches:   s.switches,
		IdleNS:     s.idleNS,
	}
	if s.now > 0 {
		res.Speedup = serial / s.now
	}
	return res, nil
}

// buildSuccs lays the trace's dependence edges out as successor lists
// in one array: counts per predecessor, their prefix sums as starts,
// then (if there is an edge at all) a fill in task order that leaves
// each start at the next list's, shifted back into place.
func (s *sim) buildSuccs() {
	off := s.succStart
	for i := range s.tr.Tasks {
		deps := s.tr.Tasks[i].Deps
		s.depsLeft[i] = int32(len(deps))
		for _, d := range deps {
			off[d+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	if off[len(off)-1] == 0 {
		return
	}
	s.succList = make([]int32, off[len(off)-1])
	for i := range s.tr.Tasks {
		for _, d := range s.tr.Tasks[i].Deps {
			s.succList[off[d]] = int32(i)
			off[d]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
}

// startTask pushes a new frame for task id on w's stack, charging the
// thief-side steal overhead if stolen. The frame starts with only the
// overhead as its current segment; segmentDone loads work segments.
func (w *vworker) startTask(s *sim, id int32, stolen bool) {
	f := frame{id: id}
	if stolen {
		f.remaining = s.p.StealNS
	}
	if id >= int32(s.tr.NumRoots) {
		f.remaining += s.queueAcquire() // dequeue through the central queue, if modeled
	}
	w.stack = append(w.stack, f)
	w.state = wRunning
	if s.p.OnStart != nil {
		s.p.OnStart(id, w.id, s.now)
	}
}

func (w *vworker) nextRand() uint64 {
	x := w.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	w.rng = x
	return x * 0x2545f4914f6cdd1d
}

// slowFactor is the bandwidth-model stretch for memory-bound work
// when a active workers share the memory system.
func (s *sim) slowFactor(active int) float64 {
	if s.p.BandwidthCap <= 0 || s.p.MemFraction <= 0 || active <= 1 {
		return 1
	}
	contend := float64(active) / s.p.BandwidthCap
	if contend < 1 {
		contend = 1
	}
	return (1 - s.p.MemFraction) + s.p.MemFraction*contend
}

func (s *sim) run() error {
	const maxIter = 1 << 40
	// finished lists the workers whose segment an event ended. It has
	// room for the whole team, so it keeps its array.
	finished := make([]int32, 0, len(s.workers))
	for iter := 0; s.liveTasks > 0; iter++ {
		if iter >= maxIter {
			return fmt.Errorf("sim: exceeded %d iterations; scheduler stuck", maxIter)
		}
		// Phase 1: settle all instantaneous transitions. Passes repeat
		// while one makes progress. A pass over no idle worker does
		// nothing; a pass with nothing queued and no ready continuation
		// only makes every idle worker draw a victim and fail, which is
		// counted here and settled per worker later.
		for s.idle > 0 {
			if s.queued == 0 && len(s.readyCont) == 0 {
				s.idlePasses++
				break
			}
			progress := false
			for _, w := range s.workers {
				if w.state == wIdle && s.tryAcquire(w) {
					progress = true
				}
			}
			if !progress {
				break
			}
		}
		if s.liveTasks == 0 {
			break
		}
		// Phase 2: advance virtual time to the next segment end. The
		// bandwidth stretch is monotone, so the memory heap's top ends
		// first among memory-bound segments under any factor. The clock
		// of the kind that ends first is set to that end, so the event
		// ends at least that segment.
		if s.active == 0 {
			return s.deadlock()
		}
		factor := s.slowFactor(s.active)
		comp, mem := &s.segs[compute], &s.segs[memoryBound]
		dt, memFirst := math.Inf(1), false
		if comp.n > 0 {
			dt = comp.seg[0].end - s.now
		}
		if mem.n > 0 {
			if d := (mem.seg[0].end - s.memClock) * factor; d < dt {
				dt, memFirst = d, true
			}
		}
		if memFirst {
			s.now += dt
			s.memClock = mem.seg[0].end
		} else {
			s.now = comp.seg[0].end
			s.memClock += dt / factor
		}
		s.idleNS += dt * float64(len(s.workers)-s.active)
		finished = comp.popEnded(s.now, finished[:0])
		finished = mem.popEnded(s.memClock, finished)
		if len(finished) > 1 {
			slices.Sort(finished)
		}
		// Finished workers go in ascending index. A segmentDone never
		// touches another running worker (see sync), so each is still
		// at its segment's end when its turn comes.
		for _, i := range finished {
			w := s.workers[i]
			w.stack[len(w.stack)-1].remaining = 0
			s.segmentDone(w)
		}
	}
	return nil
}

// deadlock reports a team with outstanding tasks and no running worker.
func (s *sim) deadlock() error {
	var depWaiting, blocked int
	for _, w := range s.workers {
		if w.state == wBlocked {
			blocked++
		}
	}
	for _, held := range s.depWaiting {
		if held {
			depWaiting++
		}
	}
	return fmt.Errorf("sim: deadlock at t=%.0fns: %d tasks outstanding (queued %d, dep-waiting %d, suspended %d, readyCont %d, blocked workers %d)",
		s.now, s.liveTasks, s.queued, depWaiting, len(s.suspended), len(s.readyCont), blocked)
}

// sync publishes w's state after the event loop touched it: it keeps
// the idle and active counts, starts the idle-draw count of a worker
// that just went idle, and pushes a running worker's new segment.
// Every change to a worker ends in a segmentDone for it (or in Run's
// set-up), which ends here. Only idle, blocked and just-finished
// workers are ever touched, and none of them is in a heap, so each
// running worker is in one exactly once.
func (s *sim) sync(w *vworker) {
	if w.state != w.synced {
		switch w.synced {
		case wIdle:
			s.idle--
		case wRunning:
			s.active--
		}
		switch w.state {
		case wIdle:
			s.idle++
			w.passMark = s.idlePasses
		case wRunning:
			s.active++
		}
		w.synced = w.state
	}
	if w.state == wRunning {
		f := &w.stack[len(w.stack)-1]
		if f.memBound {
			s.segs[memoryBound].push(s.memClock+f.remaining, int32(w.id))
		} else {
			s.segs[compute].push(s.now+f.remaining, int32(w.id))
		}
	}
}

// settleIdle replays, before an idle worker looks for work again, the
// failed steal attempts it made in the idlePasses since it last
// looked: one victim draw each and, under locality, forgetting its
// last victim — exactly what findWork does when nothing is queued.
func (s *sim) settleIdle(w *vworker) {
	owed := s.idlePasses - w.passMark
	if owed == 0 {
		return
	}
	w.passMark = s.idlePasses
	if s.disc == schedCentralized || len(s.workers) == 1 {
		return // findWork fails without drawing
	}
	for ; owed > 0; owed-- {
		w.nextRand()
	}
	if s.disc == schedLocality {
		w.lastVictim = -1
	}
}

// segmentDone processes the event at the end of the just-finished
// segment of w's top frame, cascading through zero-length segments,
// inline children, taskwaits and task completions until the worker
// either has a timed segment to run, blocks, or goes idle; then it
// publishes the worker's new state (sync).
func (s *sim) segmentDone(w *vworker) {
	s.advance(w)
	s.sync(w)
}

// advance is segmentDone's cascade.
func (s *sim) advance(w *vworker) {
	for {
		if len(w.stack) == 0 {
			w.state = wIdle
			return
		}
		f := &w.stack[len(w.stack)-1]
		if f.remaining > 0 {
			w.state = wRunning
			return
		}
		if f.inWait {
			// A suspended taskwait whose overhead segment has been
			// consumed: re-evaluate (control returns here both after
			// interleaved tasks and on wake-up from a block).
			if !s.resumeTaskwait(w, f) {
				return // blocked, or started another task
			}
			continue
		}
		t := &s.tr.Tasks[f.id]
		var boundary int64
		if f.evIdx < len(t.Events) {
			boundary = t.Events[f.evIdx].At
		} else {
			boundary = t.Work
		}
		if f.doneWork < boundary {
			// Load the work segment up to the next event (or to the
			// end of the task's own work).
			f.remaining = float64(boundary-f.doneWork) * s.p.WorkUnitNS
			f.doneWork = boundary
			f.memBound = true
			continue
		}
		if f.evIdx >= len(t.Events) {
			// All events consumed and all work done: task completes.
			s.completeTask(w, f.id)
			continue
		}
		ev := t.Events[f.evIdx]
		f.evIdx++
		switch ev.Kind {
		case trace.EvSpawn:
			s.pending[f.id]++
			if s.depsLeft[ev.Child] > 0 {
				// Deferred on dependences: counted in pending but not
				// enqueued; the last predecessor's completion will
				// push it (see completeTask).
				s.depWaiting[ev.Child] = true
			} else {
				s.enqueueReady(w, ev.Child)
			}
			f.remaining = s.p.SpawnNS + s.queueAcquire()
			f.memBound = false
		case trace.EvSpawnInline:
			// Undeferred child: bookkeeping cost on the parent, then
			// the child executes immediately as a new top frame.
			s.pending[f.id]++
			f.remaining = s.p.InlineNS
			f.memBound = false
			w.startTask(s, ev.Child, false)
		case trace.EvTaskwait:
			f.remaining = s.p.TaskwaitNS
			f.memBound = false
			if s.pending[f.id] > 0 {
				f.inWait = true
			}
		}
	}
}

// resumeTaskwait re-evaluates a frame suspended at a taskwait. It
// returns true if the wait is over (children all done) and execution
// of f may continue; false if the worker started another task (new
// top frame), blocked, or (with ThreadSwitch) detached the untied
// continuation. f must be w's top frame with inWait set.
func (s *sim) resumeTaskwait(w *vworker, f *frame) bool {
	if s.pending[f.id] == 0 {
		f.inWait = false
		return true
	}
	id := f.id
	untied := s.tr.Tasks[id].Untied
	if untied && s.p.ThreadSwitch {
		// Detach the continuation: this worker is free immediately,
		// and any worker may resume the task when its children are
		// done. This is the thread-switching capability of untied
		// tasks that stack-bound runtimes forgo.
		cont := *f
		w.stack = w.stack[:len(w.stack)-1]
		if s.suspended == nil {
			s.suspended = make(map[int32]frame)
		}
		s.suspended[id] = cont
		s.workerAfterDetach(w)
		return false
	}
	constraint := id
	if untied {
		constraint = -1
	}
	// Note: findWork/resumeReady may grow w.stack and invalidate f;
	// all frame state was written before this call.
	if s.resumeReady(w, constraint) {
		return false
	}
	if s.findWork(w, constraint) {
		w.state = wRunning
		return false
	}
	// Nothing runnable under the constraint: block like the real
	// runtime's park (woken when the last child finishes, or when an
	// admissible continuation becomes ready).
	s.parks++
	w.state = wBlocked
	s.waiterOf[id] = int32(w.id)
	return false
}

// resumeReady looks for a detached continuation that the worker may
// execute under its scheduling constraint (any for unconstrained
// workers; descendants only for a suspended tied task, per the TSC)
// and resumes it as the worker's new top frame.
func (s *sim) resumeReady(w *vworker, constraint int32) bool {
	for i, id := range s.readyCont {
		if constraint >= 0 && !s.isDescendant(id, constraint) {
			continue
		}
		s.readyCont = append(s.readyCont[:i], s.readyCont[i+1:]...)
		f := s.suspended[id]
		delete(s.suspended, id)
		f.remaining = s.p.SwitchNS
		f.memBound = false
		w.stack = append(w.stack, f)
		w.state = wRunning
		s.switches++
		return true
	}
	return false
}

// workerAfterDetach re-dispatches a worker that just shed its top
// frame: continue the frame below (itself suspended), pick up ready
// work, or go idle.
func (s *sim) workerAfterDetach(w *vworker) {
	if len(w.stack) > 0 {
		// The frame below is a suspended taskwait; the main loop's
		// segmentDone will re-evaluate it.
		w.state = wRunning
		return
	}
	w.state = wIdle
}

// isDescendant reports whether task id descends from anc in the trace.
func (s *sim) isDescendant(id, anc int32) bool {
	for p := s.tr.Tasks[id].Parent; p >= 0; p = s.tr.Tasks[p].Parent {
		if p == anc {
			return true
		}
	}
	return false
}

// taskQueue is a ready queue of task IDs, tasks() oldest first. Tasks
// are pushed at the back and taken from anywhere, in practice either
// end. The buffer is reused — reset when the queue drains, compacted
// when taken-from-the-front slots are half of it — so a queue in
// steady state allocates nothing and a front take moves nothing.
type taskQueue struct {
	buf  []int32
	head int
}

func (q *taskQueue) tasks() []int32 { return q.buf[q.head:] }

func (q *taskQueue) push(ids ...int32) {
	if len(q.buf)+len(ids) > cap(q.buf) && 2*q.head >= len(q.buf) {
		q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
	}
	q.buf = append(q.buf, ids...)
}

// removeFront drops the n oldest tasks.
func (q *taskQueue) removeFront(n int) {
	q.head += n
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// remove drops the i-th oldest task.
func (q *taskQueue) remove(i int) {
	if i == 0 {
		q.removeFront(1)
		return
	}
	i += q.head
	q.buf = append(q.buf[:i], q.buf[i+1:]...)
}

// take removes and returns q's i-th oldest task.
func (s *sim) take(q *taskQueue, i int) int32 {
	id := q.tasks()[i]
	q.remove(i)
	s.queued--
	return id
}

// enqueueReady makes a spawned or dependence-released task ready
// under the active discipline: the shared team queue for centralized,
// the acting worker's own deque (push bottom) otherwise.
func (s *sim) enqueueReady(w *vworker, id int32) {
	s.queued++
	if s.disc == schedCentralized {
		s.central.push(id)
		return
	}
	w.dq.push(id)
}

// findWork implements the runtime's runOne for virtual workers under
// the active queue discipline: take from the local area (own deque,
// or the shared queue for centralized), else steal. Returns true if a
// new frame was started.
func (s *sim) findWork(w *vworker, constraint int32) bool {
	if s.disc == schedCentralized {
		// One shared FIFO: the oldest admissible task. A constrained
		// waiter scans the queue, exactly like the runtime's
		// centralized scheduler; there is no stealing.
		for i, id := range s.central.tasks() {
			if constraint >= 0 && !s.isDescendant(id, constraint) {
				continue
			}
			w.startTask(s, s.take(&s.central, i), false)
			return true
		}
		return false
	}
	if n := len(w.dq.tasks()); n > 0 {
		// A constrained (tied) waiter always pops LIFO — its children
		// are the most recent pushes — matching the runtime's rule.
		if s.disc == schedBreadthFirst && constraint < 0 {
			w.startTask(s, s.take(&w.dq, 0), false)
			return true
		}
		if id := w.dq.tasks()[n-1]; constraint < 0 || s.isDescendant(id, constraint) {
			w.startTask(s, s.take(&w.dq, n-1), false)
			return true
		}
		// Blocked bottom task under tied constraint: leave for thieves.
		return false
	}
	nw := len(s.workers)
	if nw == 1 {
		return false
	}
	if s.queued == 0 {
		// Every deque is empty, so every probe below would fail: keep
		// only the scan's side effects (one victim draw, and locality
		// forgetting its last victim).
		w.nextRand()
		if s.disc == schedLocality {
			w.lastVictim = -1
		}
		return false
	}
	if s.disc == schedLocality && w.lastVictim >= 0 && w.lastVictim != w.id {
		if s.stealFrom(w, s.workers[w.lastVictim], constraint) {
			return true
		}
	}
	start := int(w.nextRand() % uint64(nw))
	for i := 0; i < nw; i++ {
		v := s.workers[(start+i)%nw]
		if v == w {
			continue
		}
		if s.stealFrom(w, v, constraint) {
			if s.disc == schedLocality {
				w.lastVictim = v.id
			}
			return true
		}
	}
	if s.disc == schedLocality {
		w.lastVictim = -1
	}
	return false
}

// stealFrom takes the victim's oldest task if admissible; under the
// locality discipline an unconstrained steal also moves half the
// victim's remaining backlog onto the thief's deque (steal-half),
// each moved task counting as a steal, with the steal overhead
// charged only on the task started now (bulk moves amortize it).
func (s *sim) stealFrom(w, v *vworker, constraint int32) bool {
	vq := v.dq.tasks()
	if len(vq) == 0 || constraint >= 0 && !s.isDescendant(vq[0], constraint) {
		return false
	}
	id := s.take(&v.dq, 0)
	s.steals++
	if s.disc == schedLocality && constraint < 0 {
		rest := v.dq.tasks()
		if k := len(rest) / 2; k > 0 {
			w.dq.push(rest[:k]...)
			v.dq.removeFront(k)
			s.steals += int64(k)
		}
	}
	w.startTask(s, id, true)
	return true
}

// releaseDeps performs the dependence side of task completion: every
// successor whose last unfinished predecessor was id is enqueued on
// the completing worker's deque (as in the runtime), and a blocked
// waiter that may now run or steal it is woken — without the wake, a
// released task could sit in the deque of a worker that parks while
// every thread able to execute it is already blocked.
func (s *sim) releaseDeps(w *vworker, id int32) {
	for _, succ := range s.succList[s.succStart[id]:s.succStart[id+1]] {
		s.depsLeft[succ]--
		if s.depsLeft[succ] > 0 || !s.depWaiting[succ] {
			continue
		}
		s.depWaiting[succ] = false
		s.enqueueReady(w, succ)
		for _, bw := range s.workers {
			if bw.state != wBlocked {
				continue
			}
			waitID := bw.stack[len(bw.stack)-1].id
			if s.tr.Tasks[waitID].Untied || s.isDescendant(succ, waitID) {
				s.waiterOf[waitID] = -1
				bw.state = wRunning
				s.segmentDone(bw)
				break
			}
		}
	}
}

// tryAcquire lets an idle worker look for work: first a ready
// (detached) untied continuation, then any ready task; zero-length
// segments settle immediately.
func (s *sim) tryAcquire(w *vworker) bool {
	s.settleIdle(w)
	if s.resumeReady(w, -1) {
		s.segmentDone(w)
		return true
	}
	if !s.findWork(w, -1) {
		return false
	}
	s.segmentDone(w)
	return true
}

// completeTask pops w's top frame and performs completion
// bookkeeping: decrement the parent's pending count and wake a
// blocked waiter.
func (s *sim) completeTask(w *vworker, id int32) {
	w.stack = w.stack[:len(w.stack)-1]
	s.liveTasks--
	if s.p.OnComplete != nil {
		s.p.OnComplete(id, w.id, s.now)
	}
	s.releaseDeps(w, id)
	parent := s.tr.Tasks[id].Parent
	if parent < 0 {
		return
	}
	s.pending[parent]--
	if s.pending[parent] == 0 {
		if _, ok := s.suspended[parent]; ok {
			// A detached untied continuation becomes ready. Idle
			// workers pick it up in the next dispatch pass; a blocked
			// tied waiter for which it is an admissible descendant
			// must be woken explicitly, or a lone blocked worker
			// could starve with ready work in hand.
			s.readyCont = append(s.readyCont, parent)
			for _, bw := range s.workers {
				if bw.state != wBlocked {
					continue
				}
				waitID := bw.stack[len(bw.stack)-1].id
				if s.isDescendant(parent, waitID) {
					s.waiterOf[waitID] = -1
					bw.state = wRunning
					s.segmentDone(bw)
					break
				}
			}
			return
		}
		if wi := s.waiterOf[parent]; wi >= 0 {
			s.waiterOf[parent] = -1
			waiter := s.workers[wi]
			// The waiter was blocked with the waiting frame on top
			// (inWait still set); segmentDone resumes it.
			waiter.state = wRunning
			s.segmentDone(waiter)
		}
	}
}
