// Package omp implements an OpenMP-style task-parallel runtime on
// goroutines: SPMD parallel regions with a fixed thread team,
// explicit tasks with tied/untied semantics, taskwait, task-executing
// barriers, single, loop worksharing with static/dynamic/guided
// schedules, named critical sections, threadprivate storage, the if
// clause, and pluggable runtime cut-off and scheduling policies. A
// task's body is a closure (Context.Task) or, for the finest-grained
// tasks, a fixed function applied to a firstprivate argument copied
// into a recycled cell (TaskFunc), which spawns without allocating.
//
// It is the substrate for the Go reproduction of the Barcelona OpenMP
// Tasks Suite (BOTS, Duran et al., ICPP 2009): every construct the
// nine BOTS benchmarks use from OpenMP 3.0 has a counterpart here
// with the same scheduling-relevant semantics. Tasks are scheduled by
// per-worker lock-free Chase–Lev deques with random-victim work
// stealing; a thread suspended at a taskwait executes other tasks
// subject to the OpenMP task scheduling constraint (tied tasks may
// only be interleaved with descendants; untied tasks with anything).
//
// Beyond the 3.0 core, the runtime provides the OpenMP 4.x tasking
// extensions the paper's future-work discussion points toward:
//
//   - Task dependences: the In, Out and InOut task options declare
//     the storage a task reads/writes, and the runtime orders sibling
//     tasks through a per-parent dependence table — a task with
//     unfinished predecessors is created but held until they finish,
//     replacing taskwait/barrier phase synchronization (see
//     DESIGN.md for the resolution and release protocol).
//   - Typed futures: Spawn[T] creates a task with a typed result and
//     Future.Wait blocks with taskwait semantics, executing other
//     ready tasks while waiting.
//   - Priorities: the Priority option routes tasks through
//     per-worker priority queues consulted before the deques by both
//     owners and thieves.
//
// The runtime can record the full task graph of a region — including
// dependence edges and priorities — through a trace.Recorder (see
// WithRecorder); the internal/sim package replays such traces on
// arbitrary virtual thread counts to reproduce the paper's
// scalability studies on hosts with few cores.
package omp
