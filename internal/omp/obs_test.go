package omp

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bots/internal/obs"
)

// spawnTree submits a small task tree: root spawns fan children, each
// recording a unit of work, then taskwaits.
func spawnTree(fan int) func(*Context) {
	return func(c *Context) {
		for i := 0; i < fan; i++ {
			c.Task(func(c *Context) { c.AddWork(1) })
		}
		c.Taskwait()
	}
}

// TestPersistentTeamRegisterObs: a registered team renders live
// gauges and monotone counters, and scraping stays safe after Close.
func TestPersistentTeamRegisterObs(t *testing.T) {
	pt := NewPersistentTeam(2)
	reg := obs.NewRegistry()
	pt.RegisterObs(reg, obs.Label{Name: "team", Value: "t0"})

	for i := 0; i < 8; i++ {
		pt.SubmitWait(spawnTree(16))
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`bots_team_workers{team="t0"} 2`,
		`bots_team_queued_tasks{team="t0",worker="0"}`,
		`bots_team_queued_tasks{team="t0",worker="1"}`,
		`bots_team_live_tasks{team="t0"}`,
		`bots_team_parked_workers{team="t0"}`,
		"# TYPE bots_team_tasks_created_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(out, `bots_team_tasks_created_total{team="t0"} 128`) {
		t.Errorf("tasks_created counter wrong in:\n%s", out)
	}

	pt.Close()
	// Post-Close scrape: accessors return zeros, no panic, no race
	// into freed scheduler state.
	b.Reset()
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `bots_team_live_tasks{team="t0"} 0`) {
		t.Errorf("post-Close live_tasks not zero:\n%s", b.String())
	}
	if pt.Queued(0) != 0 || pt.LiveTasks() != 0 || pt.ParkedWorkers() != 0 || pt.InflightSubmissions() != 0 {
		t.Errorf("post-Close accessors not zero")
	}
}

// TestFlightRecorderPersistentTeam: an enabled recorder captures the
// submit/spawn/finish timeline of real submissions.
func TestFlightRecorderPersistentTeam(t *testing.T) {
	fr := obs.NewFlightRecorder(2, 1024)
	pt := NewPersistentTeam(2, WithFlightRecorder(fr))
	for i := 0; i < 4; i++ {
		pt.SubmitWait(spawnTree(8))
	}
	pt.Close()

	var spawns, finishes, submits int
	for _, ev := range fr.Snapshot() {
		switch ev.Kind {
		case obs.EvSpawn:
			spawns++
		case obs.EvFinish:
			finishes++
		case obs.EvSubmit:
			submits++
			if ev.Worker != -1 {
				t.Errorf("submit event on worker ring %d", ev.Worker)
			}
		}
	}
	if submits != 4 {
		t.Errorf("submits = %d, want 4", submits)
	}
	// 4 submissions × (1 root + 8 children) finish events; spawn
	// events only for tasks that were actually deferred (≤ 32).
	if finishes != 4*9 {
		t.Errorf("finishes = %d, want 36", finishes)
	}
	if spawns > 32 {
		t.Errorf("spawns = %d, want ≤ 32", spawns)
	}
}

// TestFlightRecorderPublishOnPark: the publish contract the stall
// detector relies on. With the TestFlightRecorderPersistentTeam load
// and no Close, once ParkedWorkers reports every worker, a snapshot
// already holds every finish event: workers publish what they staged
// before registering as parked.
func TestFlightRecorderPublishOnPark(t *testing.T) {
	const workers = 2
	fr := obs.NewFlightRecorder(workers, 1024)
	pt := NewPersistentTeam(workers, WithFlightRecorder(fr))
	defer pt.Close()
	for i := 0; i < 4; i++ {
		pt.SubmitWait(spawnTree(8))
	}
	deadline := time.Now().Add(5 * time.Second)
	for pt.ParkedWorkers() != workers {
		if time.Now().After(deadline) {
			t.Fatalf("workers never all parked (%d of %d)", pt.ParkedWorkers(), workers)
		}
		time.Sleep(100 * time.Microsecond)
	}
	var finishes int
	for _, ev := range fr.Snapshot() {
		if ev.Kind == obs.EvFinish {
			finishes++
		}
	}
	if finishes != 4*9 {
		t.Errorf("finishes visible with every worker parked = %d, want 36", finishes)
	}
}

// TestFlightRecorderTaskwaitPark: a worker blocked in a taskwait is
// parked on the recorder too. On a 2-worker region the spawner's only
// child blocks on release on the other worker, so the spawner's
// Taskwait parks on its wake channel; its park must be visible before
// release is closed, and its wake after.
func TestFlightRecorderTaskwaitPark(t *testing.T) {
	fr := obs.NewFlightRecorder(2, 256)
	release, done := make(chan struct{}), make(chan struct{})
	var started atomic.Bool
	var spawner atomic.Int64
	spawner.Store(-1)
	go func() {
		defer close(done)
		Parallel(2, func(c *Context) {
			c.Single(func(c *Context) {
				spawner.Store(int64(c.ThreadNum()))
				c.Task(func(c *Context) {
					started.Store(true)
					<-release
				})
				// No scheduling point until the child runs elsewhere,
				// so the Taskwait cannot run it here.
				for !started.Load() {
					runtime.Gosched()
				}
				c.Taskwait()
			})
		}, WithFlightRecorder(fr))
	}()
	// last returns the spawner's newest published event.
	last := func() (obs.Event, bool) {
		w := int(spawner.Load())
		var ev obs.Event
		found := false
		for _, e := range fr.Snapshot() {
			if w >= 0 && e.Worker == w {
				ev, found = e, true
			}
		}
		return ev, found
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ev, ok := last(); ok && ev.Kind == obs.EvPark {
			if ev.Arg <= 0 {
				t.Errorf("taskwait park live-task arg = %d, want > 0", ev.Arg)
			}
			break
		}
		if time.Now().After(deadline) {
			close(release)
			<-done
			t.Fatal("spawner's taskwait park never published")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	<-done
	var kinds []string
	w := int(spawner.Load())
	for _, ev := range fr.Snapshot() {
		if ev.Worker == w && (ev.Kind == obs.EvPark || ev.Kind == obs.EvWake) {
			kinds = append(kinds, ev.Kind.String())
		}
	}
	if got := strings.Join(kinds, " "); !strings.HasPrefix(got, "park wake") {
		t.Errorf("spawner's park/wake events = %q, want the taskwait park then its wake first", got)
	}
}

// TestFlightRecorderParallel: WithFlightRecorder also works on plain
// Parallel regions.
func TestFlightRecorderParallel(t *testing.T) {
	fr := obs.NewFlightRecorder(2, 256)
	Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			for i := 0; i < 8; i++ {
				c.Task(func(c *Context) { c.AddWork(1) })
			}
			c.Taskwait()
		})
	}, WithFlightRecorder(fr))
	var finishes int
	for _, ev := range fr.Snapshot() {
		if ev.Kind == obs.EvFinish {
			finishes++
		}
	}
	if finishes != 8 {
		t.Errorf("finishes = %d, want 8", finishes)
	}
}

// TestStallDetector wedges a team artificially — inflating the live
// count so the workers park with "work outstanding" that never arrives —
// and checks the detector fires and the flight-recorder dump ends in
// the parked workers' park events.
func TestStallDetector(t *testing.T) {
	const workers = 2
	fr := obs.NewFlightRecorder(workers, 256)
	pt := NewPersistentTeam(workers, WithFlightRecorder(fr))

	// Run something first so the timeline is non-trivial.
	pt.SubmitWait(spawnTree(4))

	// Wedge: claim a live task exists, then wake the (already idle)
	// workers so they re-check, find nothing runnable, and park again
	// observing the wedge. A live count > 0 with all workers parked is
	// exactly the stall signature; holding one worker's created count
	// up is a task that never finishes.
	pt.tm.workers[0].stats.liveCreated.Add(1)
	pt.tm.ringAll()
	wedgedPark := func() bool {
		if pt.ParkedWorkers() != workers {
			return false
		}
		last := map[int]obs.Event{}
		for _, ev := range fr.Snapshot() {
			if ev.Worker >= 0 {
				last[ev.Worker] = ev
			}
		}
		for w := 0; w < workers; w++ {
			if ev, ok := last[w]; !ok || ev.Kind != obs.EvPark || ev.Arg <= 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !wedgedPark() {
		if time.Now().After(deadline) {
			t.Fatal("workers never re-parked under the wedge")
		}
		time.Sleep(time.Millisecond)
	}

	fired := make(chan struct{}, 1)
	stop := pt.StartStallMonitor(20*time.Millisecond, 5*time.Millisecond, func() {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("stall detector did not fire")
	}
	stop()

	// The dump's last event per parked worker must be its park.
	last := map[int]obs.Event{}
	for _, ev := range fr.Snapshot() {
		if ev.Worker >= 0 {
			last[ev.Worker] = ev // snapshot is time-sorted
		}
	}
	for w := 0; w < workers; w++ {
		ev, ok := last[w]
		if !ok {
			t.Errorf("worker %d has no events", w)
			continue
		}
		if ev.Kind != obs.EvPark {
			t.Errorf("worker %d last event = %v, want park", w, ev.Kind)
		}
		if ev.Arg <= 0 {
			t.Errorf("worker %d park event live-task arg = %d, want > 0", w, ev.Arg)
		}
	}

	// Unwedge (the phantom task finishes) and shut down cleanly.
	pt.tm.workers[0].stats.liveFinished.Add(1)
	pt.Close()
}

// TestStallDetectorQuietTeam: no fire on a healthy idle team (parked
// workers with zero live tasks is normal idleness, not a stall).
func TestStallDetectorQuietTeam(t *testing.T) {
	pt := NewPersistentTeam(2)
	defer pt.Close()
	pt.SubmitWait(spawnTree(4))
	fired := make(chan struct{}, 1)
	stop := pt.StartStallMonitor(10*time.Millisecond, 2*time.Millisecond, func() {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	defer stop()
	select {
	case <-fired:
		t.Fatal("detector fired on idle team")
	case <-time.After(100 * time.Millisecond):
	}
}
