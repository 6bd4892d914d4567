package omp

import (
	"strconv"
	"sync"
	"time"

	"bots/internal/obs"
)

// This file is the runtime's bridge to internal/obs: live sampling
// accessors on PersistentTeam, registry publication of team gauges
// and counters, and the stall detector that triggers automatic
// flight-recorder dumps. All of it is pull-based — nothing here adds
// work to the task hot path; scrape-time closures read the same
// atomics the runtime already maintains.

// WithFlightRecorder attaches a flight recorder to the team: the
// runtime records spawn/steal/park/wake/submit/finish events into it
// (see internal/obs). The recorder should be built with the team's
// worker count (obs.NewFlightRecorder(n, perWorker)); the caller
// keeps the handle for Snapshot/WriteJSON. Off by default — a team
// without one pays only a nil check per event site.
func WithFlightRecorder(fr *obs.FlightRecorder) TeamOpt {
	return func(c *teamConfig) { c.fr = fr }
}

// FlightRecorder returns the team's recorder, or nil when the team
// was built without WithFlightRecorder.
func (pt *PersistentTeam) FlightRecorder() *obs.FlightRecorder { return pt.tm.fr }

// LiveTasks returns the team's current live-task count (created, not
// yet finished). While workers run it may overstate the count, never
// understate it; on a team whose workers are all parked it is exact.
// Zero after Close.
func (pt *PersistentTeam) LiveTasks() int64 {
	pt.obsMu.RLock()
	defer pt.obsMu.RUnlock()
	if pt.finalized {
		return 0
	}
	return pt.tm.live()
}

// InflightSubmissions returns submissions accepted and not yet
// completed (inbox plus executing). Zero after Close.
func (pt *PersistentTeam) InflightSubmissions() int64 {
	pt.obsMu.RLock()
	defer pt.obsMu.RUnlock()
	if pt.finalized {
		return 0
	}
	return pt.inflight.Load()
}

// ParkedWorkers returns the number of workers currently registered as
// parked (blocked or in the pre-park re-check): idle on the team
// doorbell, or in a condition wait — taskwait, Future.Wait, Taskgroup.
// Zero after Close.
func (pt *PersistentTeam) ParkedWorkers() int {
	pt.obsMu.RLock()
	defer pt.obsMu.RUnlock()
	if pt.finalized {
		return 0
	}
	return int(pt.tm.idleWaiters.Load() + pt.tm.waitParkers.Load())
}

// Queued returns worker w's ready backlog as the scheduler reports
// it. Zero after Close (the scheduler's queues are released by
// shutdown; the obsMu guard is what makes a scrape racing Close safe).
func (pt *PersistentTeam) Queued(w int) int64 {
	pt.obsMu.RLock()
	defer pt.obsMu.RUnlock()
	if pt.finalized || w < 0 || w >= len(pt.tm.workers) {
		return 0
	}
	return pt.tm.sched.Queued(w)
}

// RegisterObs publishes the team's live gauges and cumulative
// counters into reg under the bots_team_* names (DESIGN.md §11), all
// sampled at scrape time. The extra labels are attached to every
// series, so two teams can share one registry when given
// distinguishing labels. Safe to leave registered across Close: the
// sampling accessors return zeros once the team is finalized.
func (pt *PersistentTeam) RegisterObs(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("bots_team_workers", "Team size (worker goroutines).",
		func() float64 { return float64(pt.NumWorkers()) }, labels...)
	reg.GaugeFunc("bots_team_live_tasks", "Tasks created and not yet finished.",
		func() float64 { return float64(pt.LiveTasks()) }, labels...)
	reg.GaugeFunc("bots_team_inflight_submissions", "Submissions accepted and not yet completed.",
		func() float64 { return float64(pt.InflightSubmissions()) }, labels...)
	reg.GaugeFunc("bots_team_parked_workers", "Workers parked: idle on the team doorbell or in a condition wait.",
		func() float64 { return float64(pt.ParkedWorkers()) }, labels...)
	for i := 0; i < pt.NumWorkers(); i++ {
		i := i
		wl := append(append([]obs.Label(nil), labels...), obs.Label{Name: "worker", Value: strconv.Itoa(i)})
		reg.GaugeFunc("bots_team_queued_tasks", "Ready backlog per worker, as the scheduler reports it.",
			func() float64 { return float64(pt.Queued(i)) }, wl...)
	}
	RegisterStats(reg, "bots_team", pt.Stats, labels...)
}

// RegisterStats publishes the counter fields of a Stats view as
// sampled Prometheus counters named <prefix>_<field>_total. get is
// evaluated at scrape time, so passing a live snapshot method (e.g.
// PersistentTeam.Stats) yields monotone live counters, and passing a
// closure over a finished region's Stats yields its final totals
// (`bots -obs` does this).
func RegisterStats(reg *obs.Registry, prefix string, get func() Stats, labels ...obs.Label) {
	counter := func(field, help string, sel func(Stats) int64) {
		reg.CounterFunc(prefix+"_"+field+"_total", help,
			func() float64 { return float64(sel(get())) }, labels...)
	}
	counter("tasks_created", "Deferred tasks pushed to scheduler queues (spawns).",
		func(s Stats) int64 { return s.TasksCreated })
	counter("tasks_undeferred", "Tasks executed inline by an if(false) clause, final ancestor, or cut-off.",
		func(s Stats) int64 { return s.TasksUndeferred })
	counter("tasks_stolen", "Tasks executed by a worker other than their creator.",
		func(s Stats) int64 { return s.TasksStolen })
	counter("steal_attempts", "Steal attempts made by idle workers.",
		func(s Stats) int64 { return s.StealAttempts })
	counter("steal_fails", "Steal attempts that came back empty.",
		func(s Stats) int64 { return s.StealFails })
	counter("idle_parks", "Times a worker exhausted its spin budget and parked on the doorbell.",
		func(s Stats) int64 { return s.IdleParks })
	counter("taskwaits", "Taskwait operations executed.",
		func(s Stats) int64 { return s.Taskwaits })
	counter("taskwait_parks", "Taskwaits that had to park.",
		func(s Stats) int64 { return s.TaskwaitParks })
	counter("barriers", "Team barrier arrivals.",
		func(s Stats) int64 { return s.Barriers })
	counter("dep_edges", "Dependence edges resolved at task creation.",
		func(s Stats) int64 { return s.DepEdges })
	counter("dep_releases", "Held tasks released by their last predecessor finishing.",
		func(s Stats) int64 { return s.DepReleases })
	counter("future_waits", "Future.Wait operations that blocked.",
		func(s Stats) int64 { return s.FutureWaits })
	counter("tasks_reclaimed", "Finished tasks reset for reuse inside the region, after a grace period.",
		func(s Stats) int64 { return s.TasksReclaimed })
	counter("task_pool_misses", "Task structs heap-allocated because every recycling tier was empty.",
		func(s Stats) int64 { return s.TaskPoolMisses })
}

// StartStallMonitor polls the team every poll interval and calls
// onStall once each time the stalled condition — live tasks
// outstanding with every worker parked — has held continuously for at
// least threshold. That condition is the runtime's lost-wakeup
// signature: work exists that nothing will ever pick up. onStall
// typically dumps the flight recorder (botserve wires it to a JSON
// dump on the metrics listener; tests wire it to a channel). The
// detector re-arms when the condition clears. The returned stop
// function halts the monitor and waits for it to exit; the monitor is
// also safe to leave running across Close (the sampling accessors it
// uses return zeros once the team is finalized).
func (pt *PersistentTeam) StartStallMonitor(threshold, poll time.Duration, onStall func()) (stop func()) {
	if poll <= 0 {
		poll = threshold / 4
	}
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(poll)
		defer tick.Stop()
		var stalledSince time.Time
		fired := false
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				stalled := pt.LiveTasks() > 0 && pt.ParkedWorkers() == pt.NumWorkers()
				if !stalled {
					stalledSince = time.Time{}
					fired = false
					continue
				}
				if stalledSince.IsZero() {
					stalledSince = now
				}
				if !fired && now.Sub(stalledSince) >= threshold {
					fired = true
					onStall()
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
