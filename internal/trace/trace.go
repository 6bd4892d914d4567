// Package trace records the task graph produced by a run of the omp
// tasking runtime in a form that the discrete-event simulator
// (internal/sim) can replay on an arbitrary number of virtual threads.
//
// Costs are expressed in abstract work units rather than wall-clock
// nanoseconds: application task bodies report the work they perform
// (arithmetic operations, in the units the BOTS paper uses for
// Table II) and the tracer records, for every task, the sequence of
// scheduling-relevant events (child spawns, taskwaits, completion)
// together with the cumulative work executed when each event occurs.
// This makes a trace's costs deterministic, portable, and independent
// of timer resolution, which matters on a single-core host where
// individual tasks execute in nanoseconds: a task's work units do not
// depend on when or where it ran.
//
// A recording as a whole is not deterministic. Roots are numbered in
// the order team workers start, so which root is the spawning implicit
// task varies from run to run, and two processes recording the same
// cell can replay to different results (sort/untied/medium has
// replayed to 661 vs 536 workfirst×8 steals). The simulator is a pure
// function of the trace it replays; compare replays on saved traces.
// Numbering roots canonically in Recorder.Finish would remove that
// variation; it is not done yet.
package trace

import "fmt"

// EventKind identifies the kind of a scheduling event inside a task.
type EventKind uint8

const (
	// EvSpawn marks the creation of a deferred child task.
	EvSpawn EventKind = iota
	// EvSpawnInline marks the creation of an undeferred child task
	// (if(false) clause, final region, or runtime cut-off): the child
	// executes immediately on the encountering thread but still pays
	// task-management overhead, unlike a manual cut-off.
	EvSpawnInline
	// EvTaskwait marks a taskwait: the task suspends until all
	// children spawned so far have completed.
	EvTaskwait
)

func (k EventKind) String() string {
	switch k {
	case EvSpawn:
		return "spawn"
	case EvSpawnInline:
		return "spawn-inline"
	case EvTaskwait:
		return "taskwait"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one scheduling event inside a task's execution.
type Event struct {
	// At is the cumulative self-work (in work units) the task had
	// executed when the event occurred. Events are ordered by At.
	At int64
	// Kind is the event kind.
	Kind EventKind
	// Child is the ID of the spawned task for EvSpawn/EvSpawnInline;
	// -1 for EvTaskwait.
	Child int32
}

// Task is one recorded task.
type Task struct {
	// ID is the task's index in Trace.Tasks.
	ID int32
	// Parent is the ID of the creating task, or -1 for implicit
	// (per-thread root) tasks.
	Parent int32
	// Untied reports whether the task was created with the untied
	// clause.
	Untied bool
	// Inline reports whether the task was undeferred (executed
	// immediately by the encountering thread).
	Inline bool
	// Depth is the task-tree depth (implicit tasks are depth 0).
	Depth int32
	// Work is the total self-work of the task in work units,
	// excluding all descendants.
	Work int64
	// SharedWrites and PrivateWrites count memory writes reported by
	// the application for this task (Table II accounting; also feeds
	// the simulator's bandwidth model).
	SharedWrites, PrivateWrites int64
	// Captured is the number of bytes of captured environment
	// (firstprivate data) copied into the task at creation.
	Captured int32
	// Priority is the task's scheduling priority (0 = default).
	Priority int32
	// Deps lists the IDs of the sibling tasks this task depends on
	// (its dependence predecessors, resolved from In/Out/InOut
	// clauses at creation). The task may not start before every
	// listed task has completed. Predecessors always share this
	// task's parent and have smaller IDs (they were created earlier).
	Deps []int32
	// Events is the ordered list of scheduling events.
	Events []Event
}

// Trace is a complete recorded task graph for one parallel region.
type Trace struct {
	// Tasks holds every task, indexed by ID. The first NumRoots
	// entries are the implicit tasks of the recording team's threads.
	Tasks []Task
	// NumRoots is the number of implicit (per-thread root) tasks.
	NumRoots int
}

// TotalWork returns the sum of self-work over all tasks.
func (tr *Trace) TotalWork() int64 {
	var w int64
	for i := range tr.Tasks {
		w += tr.Tasks[i].Work
	}
	return w
}

// NumTasks returns the number of explicit tasks in the trace
// (deferred and undeferred), excluding implicit root tasks.
func (tr *Trace) NumTasks() int {
	return len(tr.Tasks) - tr.NumRoots
}

// NumDeferred returns the number of deferred (queued) tasks.
func (tr *Trace) NumDeferred() int {
	n := 0
	for i := tr.NumRoots; i < len(tr.Tasks); i++ {
		if !tr.Tasks[i].Inline {
			n++
		}
	}
	return n
}

// NumTaskwaits returns the total number of taskwait events.
func (tr *Trace) NumTaskwaits() int64 {
	var n int64
	for i := range tr.Tasks {
		for _, e := range tr.Tasks[i].Events {
			if e.Kind == EvTaskwait {
				n++
			}
		}
	}
	return n
}

// CriticalPath returns the length, in work units, of the longest
// chain of spawn/taskwait/dependence constraints in the trace: the
// minimum possible makespan on infinitely many threads with zero
// overheads.
//
// Two completion notions matter (and differ, per OpenMP semantics):
// a taskwait joins only on the *own* completion of direct children —
// a child may finish with its own unawaited descendants still running
// — while the region (and hence the critical path) is bounded by the
// *subtree* completion of every task.
//
// Dependence edges (Task.Deps) are folded in: a task with
// predecessors cannot start before the *own* completion of every
// predecessor (the runtime and the simulator release a held task on
// its last predecessor's completion), so dep-driven traces
// (sparselu/dep-*) report their true span, not the spawn-tree lower
// bound. The computation walks the graph in absolute time: each
// task's earliest start is the later of its spawn point and its
// predecessors' finishes, and because predecessors are always
// earlier-created siblings (Validate), the parent's event walk
// reaches them first.
func (tr *Trace) CriticalPath() int64 {
	type span struct {
		own  int64 // absolute time of the task's own completion
		full int64 // absolute time its entire subtree completes
	}
	fin := make([]span, len(tr.Tasks))
	var eval func(id int32, start int64) span
	eval = func(id int32, start int64) span {
		t := &tr.Tasks[id]
		var pend []int32
		cursor := start
		workDone := int64(0)
		full := int64(0)
		// depStart delays a child past the own-completion of its
		// dependence predecessors, all evaluated earlier in this walk.
		depStart := func(child int32, at int64) int64 {
			for _, d := range tr.Tasks[child].Deps {
				if f := fin[d].own; f > at {
					at = f
				}
			}
			return at
		}
		for _, e := range t.Events {
			cursor += e.At - workDone
			workDone = e.At
			switch e.Kind {
			case EvSpawn:
				s := eval(e.Child, depStart(e.Child, cursor))
				pend = append(pend, e.Child)
				if s.full > full {
					full = s.full
				}
			case EvSpawnInline:
				// Undeferred child executes inline to its own
				// completion (after its own dependences are met);
				// its unawaited descendants overhang.
				s := eval(e.Child, depStart(e.Child, cursor))
				if s.full > full {
					full = s.full
				}
				cursor = s.own
			case EvTaskwait:
				for _, c := range pend {
					if fin[c].own > cursor {
						cursor = fin[c].own
					}
				}
				pend = pend[:0]
			}
		}
		cursor += t.Work - workDone
		if cursor > full {
			full = cursor
		}
		fin[id] = span{own: cursor, full: full}
		return fin[id]
	}
	var cp int64
	for r := 0; r < tr.NumRoots; r++ {
		if s := eval(int32(r), 0); s.full > cp {
			cp = s.full
		}
	}
	return cp
}

// Validate checks structural invariants of the trace: parents precede
// children, event offsets are monotonic and within task work, every
// non-root task is referenced by exactly one spawn event, and
// dependence predecessors are earlier-created siblings.
func (tr *Trace) Validate() error {
	referenced := make([]int32, len(tr.Tasks))
	for i := range tr.Tasks {
		t := &tr.Tasks[i]
		if int(t.ID) != i {
			return fmt.Errorf("trace: task %d has ID %d", i, t.ID)
		}
		if i < tr.NumRoots {
			if t.Parent != -1 {
				return fmt.Errorf("trace: root task %d has parent %d", i, t.Parent)
			}
		} else if t.Parent < 0 || int(t.Parent) >= len(tr.Tasks) {
			return fmt.Errorf("trace: task %d has out-of-range parent %d", i, t.Parent)
		}
		last := int64(0)
		for _, e := range t.Events {
			if e.At < last {
				return fmt.Errorf("trace: task %d has non-monotonic event offsets", i)
			}
			last = e.At
			switch e.Kind {
			case EvSpawn, EvSpawnInline:
				if e.Child <= 0 || int(e.Child) >= len(tr.Tasks) {
					return fmt.Errorf("trace: task %d spawns out-of-range child %d", i, e.Child)
				}
				if tr.Tasks[e.Child].Parent != t.ID {
					return fmt.Errorf("trace: task %d spawns task %d whose parent is %d",
						i, e.Child, tr.Tasks[e.Child].Parent)
				}
				referenced[e.Child]++
			}
		}
		if last > t.Work {
			return fmt.Errorf("trace: task %d has event offset %d beyond its work %d", i, last, t.Work)
		}
		for _, d := range t.Deps {
			if d < 0 || int(d) >= len(tr.Tasks) {
				return fmt.Errorf("trace: task %d depends on out-of-range task %d", i, d)
			}
			if d >= t.ID {
				return fmt.Errorf("trace: task %d depends on task %d, which was not created before it", i, d)
			}
			if tr.Tasks[d].Parent != t.Parent {
				return fmt.Errorf("trace: task %d depends on task %d with a different parent (%d vs %d)",
					i, d, tr.Tasks[d].Parent, t.Parent)
			}
		}
	}
	for i := tr.NumRoots; i < len(tr.Tasks); i++ {
		if referenced[i] != 1 {
			return fmt.Errorf("trace: task %d referenced by %d spawn events (want 1)", i, referenced[i])
		}
	}
	return nil
}
