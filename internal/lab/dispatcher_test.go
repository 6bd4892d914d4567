package lab_test

import (
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"bots/internal/lab"
)

func waitSweep(t *testing.T, sw *lab.Sweep) lab.SweepStatus {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("sweep %s did not finish: %+v", sw.ID(), sw.Status())
	}
	return sw.Status()
}

func TestDispatcherRunsSweep(t *testing.T) {
	fake := &fakeRunner{}
	d := lab.NewDispatcher(fake, 4, 0)
	defer d.Close()
	jobs := []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2), testSpec("fib", 4), testSpec("fib", 8)}
	sw, err := d.SubmitJobs("quartet", jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := waitSweep(t, sw)
	if !st.Finished() || st.Done != 4 || st.Failed != 0 {
		t.Fatalf("final status = %+v", st)
	}
	for _, j := range st.Jobs {
		if j.Status != lab.JobDone || j.Attempts != 1 || j.Key == "" {
			t.Errorf("job %+v not cleanly done", j)
		}
	}
	if fake.calls.Load() != 4 {
		t.Fatalf("executed %d jobs, want 4", fake.calls.Load())
	}
}

func TestDispatcherRetriesTransientFailure(t *testing.T) {
	fake := &fakeRunner{}
	fake.failN.Store(1) // first call fails, the retry succeeds
	d := lab.NewDispatcher(fake, 1, 1)
	defer d.Close()
	sw, err := d.SubmitJobs("flaky", []lab.JobSpec{testSpec("fib", 1)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitSweep(t, sw)
	if st.Done != 1 || st.Failed != 0 {
		t.Fatalf("final status = %+v", st)
	}
	if got := st.Jobs[0].Attempts; got != 2 {
		t.Fatalf("attempts = %d, want 2 (one failure + one retry)", got)
	}
}

func TestDispatcherMarksExhaustedJobFailed(t *testing.T) {
	fake := &fakeRunner{}
	fake.failN.Store(1 << 30) // never succeeds
	d := lab.NewDispatcher(fake, 2, 2)
	defer d.Close()
	sw, err := d.SubmitJobs("doomed", []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitSweep(t, sw)
	if st.Failed != 2 || st.Done != 0 {
		t.Fatalf("final status = %+v", st)
	}
	for _, j := range st.Jobs {
		if j.Status != lab.JobFailed || j.Attempts != 3 {
			t.Errorf("job = %+v, want failed after 3 attempts", j)
		}
		if j.Error == "" {
			t.Error("failed job carries no error message")
		}
	}
}

func TestDispatcherProgressCallbacks(t *testing.T) {
	fake := &fakeRunner{}
	d := lab.NewDispatcher(fake, 1, 0)
	defer d.Close()
	var mu sync.Mutex
	var events []lab.ProgressEvent
	d.OnProgress = func(ev lab.ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	sw, err := d.SubmitJobs("observed", []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitSweep(t, sw)
	mu.Lock()
	defer mu.Unlock()
	// Each job transitions queued→running→done: 2 events per job.
	if len(events) != 4 {
		t.Fatalf("got %d progress events, want 4: %+v", len(events), events)
	}
	var running, done int
	for _, ev := range events {
		if ev.SweepID != sw.ID() {
			t.Errorf("event for wrong sweep: %+v", ev)
		}
		switch ev.Job.Status {
		case lab.JobRunning:
			running++
		case lab.JobDone:
			done++
		}
	}
	if running != 2 || done != 2 {
		t.Fatalf("running/done events = %d/%d, want 2/2", running, done)
	}
}

func TestDispatcherBoundsConcurrency(t *testing.T) {
	fake := &fakeRunner{block: make(chan struct{})}
	d := lab.NewDispatcher(fake, 2, 0)
	defer d.Close()
	var jobs []lab.JobSpec
	for i := 1; i <= 8; i++ {
		jobs = append(jobs, testSpec("fib", i))
	}
	sw, err := d.SubmitJobs("bounded", jobs)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the pool saturate
	close(fake.block)
	waitSweep(t, sw)
	if got := fake.maxInfl.Load(); got > 2 {
		t.Fatalf("observed %d concurrent jobs on a 2-worker pool", got)
	}
}

// TestDispatcherRetryBackoff pins the retry schedule: a failed job
// goes back to queued with its last error and a NextAttempt gate, and
// the retry does not run before the backoff window elapses.
func TestDispatcherRetryBackoff(t *testing.T) {
	fake := &fakeRunner{}
	fake.failN.Store(1)
	d := lab.NewDispatcher(fake, 1, 1)
	d.RetryBase = 200 * time.Millisecond
	d.RetryCap = 200 * time.Millisecond
	defer d.Close()
	start := time.Now()
	sw, err := d.SubmitJobs("backoff", []lab.JobSpec{testSpec("fib", 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Catch the job inside its backoff window: queued again, first
	// attempt's error retained, retry time advertised.
	sawGate := false
	for !sawGate {
		st := sw.Status()
		j := st.Jobs[0]
		if j.Status == lab.JobQueued && j.Attempts == 1 {
			if j.Error == "" || j.NextAttempt == nil {
				t.Fatalf("backed-off job missing error/next_attempt: %+v", j)
			}
			sawGate = true
		}
		if st.Finished() {
			t.Fatal("sweep finished before the backoff window was observed")
		}
		time.Sleep(time.Millisecond)
	}
	st := waitSweep(t, sw)
	if st.Done != 1 || st.Jobs[0].Attempts != 2 {
		t.Fatalf("final status = %+v", st)
	}
	// 200ms base with ±25% jitter: the retry can fire no earlier than
	// 150ms after the first failure.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("retry fired after %s, want >= 150ms of backoff", elapsed)
	}
	if j := st.Jobs[0]; j.NextAttempt != nil || j.Error != "" {
		t.Fatalf("done job still carries retry state: %+v", j)
	}
}

// TestDispatcherCancel cancels a sweep with cells in every pre-terminal
// state: queued cells flip to cancelled immediately, running cells
// finish normally, and the sweep lands in the cancelled state.
func TestDispatcherCancel(t *testing.T) {
	fake := &fakeRunner{block: make(chan struct{})}
	d := lab.NewDispatcher(fake, 2, 0)
	defer d.Close()
	var jobs []lab.JobSpec
	for i := 1; i <= 6; i++ {
		jobs = append(jobs, testSpec("fib", i))
	}
	sw, err := d.SubmitJobs("doomed", jobs)
	if err != nil {
		t.Fatal(err)
	}
	for sw.Status().Running != 2 {
		time.Sleep(time.Millisecond)
	}
	st, err := d.Cancel(sw.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != lab.SweepCancelling || st.Cancelled != 4 {
		t.Fatalf("status right after cancel = %+v", st)
	}
	close(fake.block) // let the two in-flight cells finish
	final := waitSweep(t, sw)
	if final.State != lab.SweepCancelled || final.Done != 2 || final.Cancelled != 4 || final.Failed != 0 {
		t.Fatalf("final status = %+v", final)
	}
	if fake.calls.Load() != 2 {
		t.Fatalf("executed %d cells after cancel, want 2", fake.calls.Load())
	}
	if _, err := d.Cancel("s999"); err == nil {
		t.Fatal("cancelling an unknown sweep should fail")
	}
}

// TestDispatcherInstancesCap pins the testground-style instances
// knob: a sweep asking for 2 instances never has more than 2 cells in
// flight even on a larger pool, and still completes.
func TestDispatcherInstancesCap(t *testing.T) {
	fake := &fakeRunner{block: make(chan struct{})}
	d := lab.NewDispatcher(fake, 4, 0)
	defer d.Close()
	var jobs []lab.JobSpec
	for i := 1; i <= 8; i++ {
		jobs = append(jobs, testSpec("fib", i))
	}
	sw, err := d.SubmitJobsN("capped", 2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status().Instances != 2 {
		t.Fatalf("status instances = %d, want 2", sw.Status().Instances)
	}
	for sw.Status().Running != 2 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give the pool a chance to overshoot
	if got := fake.inflight.Load(); got != 2 {
		t.Fatalf("%d cells in flight under an instances=2 cap", got)
	}
	close(fake.block)
	st := waitSweep(t, sw)
	if st.Done != 8 {
		t.Fatalf("final status = %+v", st)
	}
	if got := fake.maxInfl.Load(); got > 2 {
		t.Fatalf("observed %d concurrent cells, cap was 2", got)
	}
	// An uncapped sibling on the same pool uses all four workers.
	if _, err := d.SubmitJobsN("neg", -1, jobs); err == nil {
		t.Fatal("negative instances should fail at submit")
	}
}

func TestDispatcherRejectsAfterClose(t *testing.T) {
	d := lab.NewDispatcher(&fakeRunner{}, 1, 0)
	d.Close()
	if _, err := d.SubmitJobs("late", []lab.JobSpec{testSpec("fib", 1)}); err == nil {
		t.Fatal("submit after Close should fail")
	}
}

// TestDispatcherCloseOverWorkerlessFleet closes a one-worker
// dispatcher whose first cell waits on a fleet no worker ever polls
// and whose second is still queued. Close cancels both and returns;
// the abandoned cell leaves the fleet's queue.
func TestDispatcherCloseOverWorkerlessFleet(t *testing.T) {
	f := lab.NewFleet(lab.FleetConfig{})
	defer f.Close()
	d := lab.NewDispatcher(lab.NewRemoteRunner(f), 1, 0)
	sw, err := d.SubmitJobs("stranded", []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2)})
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool { return f.Status().QueueDepth == 1 })
	closed := make(chan struct{})
	go func() {
		d.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked after 5s on a fleet with no worker")
	}
	if st := sw.Status(); st.State != lab.SweepCancelled || st.Cancelled != 2 {
		t.Fatalf("sweep after Close = %+v, want both cells cancelled", st)
	}
	if depth := f.Status().QueueDepth; depth != 0 {
		t.Fatalf("fleet queue depth after Close = %d, want 0", depth)
	}
}

// TestDispatcherCancelAndCloseStopBackoff parks one cell of each of
// two sweeps in an hour-long retry backoff. Cancel resolves its
// sweep's cell at once, and Close the other's before it returns: no
// backoff timer outlives them to settle a cell later.
func TestDispatcherCancelAndCloseStopBackoff(t *testing.T) {
	fake := &fakeRunner{}
	fake.failN.Store(2)
	d := lab.NewDispatcher(fake, 1, 1)
	d.RetryBase, d.RetryCap = time.Hour, time.Hour
	cancelled, err := d.SubmitJobs("cancelled", []lab.JobSpec{testSpec("fib", 1)})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := d.SubmitJobs("closed", []lab.JobSpec{testSpec("fib", 2)})
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []*lab.Sweep{cancelled, closed} {
		waitCond(t, 5*time.Second, func() bool { return sw.Status().Jobs[0].NextAttempt != nil })
	}
	if _, err := d.Cancel(cancelled.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cancelled.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("cancelled sweep still waiting out its backoff: %+v", cancelled.Status())
	}
	d.Close()
	select {
	case <-closed.Done():
	default:
		t.Fatalf("Close returned with a cell still in backoff: %+v", closed.Status())
	}
	for _, sw := range []*lab.Sweep{cancelled, closed} {
		if j := sw.Status().Jobs[0]; j.Status != lab.JobCancelled || j.Attempts != 1 {
			t.Fatalf("%s: cell = %+v, want cancelled after 1 attempt", sw.Status().Name, j)
		}
	}
}

func TestDispatcherRejectsEmptySweep(t *testing.T) {
	d := lab.NewDispatcher(&fakeRunner{}, 1, 0)
	defer d.Close()
	if _, err := d.SubmitJobs("empty", nil); err == nil {
		t.Fatal("empty sweep should fail at submit")
	}
}

// TestDispatcherCountsCostFlat checks that Counts tallies job states in
// place: neither its allocations nor its allocated bytes grow with the
// number of jobs a sweep holds. (It used to copy every JobView of every
// sweep per call, and /metrics calls it six times per scrape.)
func TestDispatcherCountsCostFlat(t *testing.T) {
	cost := func(n int) (allocs float64, bytes uint64) {
		d := lab.NewDispatcher(&fakeRunner{}, 4, 0)
		defer d.Close()
		jobs := make([]lab.JobSpec, n)
		for i := range jobs {
			jobs[i] = testSpec("fib", i+1)
		}
		sw, err := d.SubmitJobs("counts", jobs)
		if err != nil {
			t.Fatal(err)
		}
		waitSweep(t, sw)
		if c := d.Counts(); c.Done != n || c.Sweeps != 1 {
			t.Fatalf("Counts() = %+v, want %d done in 1 sweep", c, n)
		}
		allocs = testing.AllocsPerRun(50, func() { d.Counts() })
		const calls = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			d.Counts()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / calls
	}
	smallAllocs, smallBytes := cost(20)
	largeAllocs, largeBytes := cost(2000)
	if largeAllocs != smallAllocs {
		t.Errorf("Counts allocates %.0f times with 2000 jobs, %.0f with 20", largeAllocs, smallAllocs)
	}
	if largeBytes > smallBytes+256 {
		t.Errorf("Counts allocates %d B with 2000 jobs, %d B with 20", largeBytes, smallBytes)
	}
}

// liveHeap is the live heap after a full collection: the value the
// bots_go_heap_live_bytes gauge reads.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// allHitRunner is a CachedRunner over an in-memory store holding every
// cell, in front of a fake executor that must never run.
func allHitRunner(t testing.TB, cells []lab.JobSpec) (*lab.CachedRunner, *fakeRunner) {
	store, err := lab.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := store.Put(&lab.Record{Key: c.Key(), Spec: c, Verified: true}); err != nil {
			t.Fatal(err)
		}
	}
	exec := &fakeRunner{}
	return lab.NewCachedRunner(store, exec), exec
}

// TestDispatcherSoakHeapBounded resubmits one all-hit sweep to a
// long-lived Dispatcher(1) → CachedRunner until it has run 100 k cells
// and three times the retention cap in sweeps. The live heap it leaves
// must stay under a fixed ceiling: finished sweeps past the cap retire,
// so only the newest RetainTerminal sweeps' views (~3 MB here) stay. A
// dispatcher that keeps every sweep's views holds ~200 B per cell, over
// 20 MB here, and grows with every sweep.
func TestDispatcherSoakHeapBounded(t *testing.T) {
	const ceiling = 8 << 20
	cells := hitCells(260)
	runner, exec := allHitRunner(t, cells)
	before := liveHeap()
	d := lab.NewDispatcher(runner, 1, 0)
	defer d.Close()
	sweeps, ran := 0, 0
	for ran < 100_000 || sweeps < 3*lab.RetainTerminal {
		sw, err := d.SubmitJobs("soak", cells)
		if err != nil {
			t.Fatal(err)
		}
		if st := sw.Wait(); st.Done != len(cells) {
			t.Fatalf("sweep %d: %d of %d cells done", sweeps, st.Done, len(cells))
		}
		sweeps++
		ran += len(cells)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(d)
	runtime.KeepAlive(runner)
	if c := d.Counts(); c.Done != ran || c.Sweeps != sweeps {
		t.Errorf("Counts() = %+v after %d cells in %d sweeps", c, ran, sweeps)
	}
	if n := exec.calls.Load(); n != 0 {
		t.Fatalf("an all-hit sweep executed %d cells", n)
	}
	t.Logf("%d sweeps, %d cells: live heap grew %.1f MB (%.1f B/cell)", sweeps, ran, float64(grown)/(1<<20), float64(grown)/float64(ran))
	if grown > ceiling {
		t.Fatalf("live heap grew %.1f MB over %d sweeps, ceiling %d MB", float64(grown)/(1<<20), sweeps, ceiling>>20)
	}
}

// TestDispatchAllHitBytesPerCell is the allocation ceiling of an
// all-hit sweep: SubmitJobs and Wait of 2 080 stored, already keyed
// cells allocate at most 256 B per cell, about one JobView. A
// dispatcher that re-derives each cell's identity or copies the views
// on Wait allocates ~400.
func TestDispatchAllHitBytesPerCell(t *testing.T) {
	const ceiling = 256
	cells := hitCells(2080)
	runner, exec := allHitRunner(t, cells)
	d := lab.NewDispatcher(runner, 1, 0)
	defer d.Close()
	run := func() {
		sw, err := d.SubmitJobs("bytes", cells)
		if err != nil {
			t.Fatal(err)
		}
		if st := sw.Wait(); st.Done != len(cells) {
			t.Fatalf("%d of %d cells done", st.Done, len(cells))
		}
	}
	run()
	// The least of a few runs, so another goroutine's allocations
	// cannot fail the test.
	best := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if n := exec.calls.Load(); n != 0 {
		t.Fatalf("an all-hit sweep executed %d cells", n)
	}
	perCell := float64(best) / float64(len(cells))
	t.Logf("%.0f B per cell", perCell)
	if perCell > ceiling {
		t.Fatalf("an all-hit sweep allocates %.0f B per cell, ceiling %d", perCell, ceiling)
	}
}

// TestDispatcherFinishedStatusSharesViews checks that the status of a
// finished 2 080-cell sweep costs no allocation: Status and Wait hand
// back the views as they were at finish, the same array every time,
// with the counts frozen then.
func TestDispatcherFinishedStatusSharesViews(t *testing.T) {
	cells := hitCells(2080)
	runner, _ := allHitRunner(t, cells)
	d := lab.NewDispatcher(runner, 1, 0)
	defer d.Close()
	sw, err := d.SubmitJobs("finished", cells)
	if err != nil {
		t.Fatal(err)
	}
	final := sw.Wait()
	if final.State != lab.SweepDone || final.Total != len(cells) || final.Done != len(cells) || len(final.Jobs) != len(cells) {
		t.Fatalf("final status = %+v", final)
	}
	for i, v := range final.Jobs {
		if v.Key != cells[i].Key() || v.Status != lab.JobDone || v.Attempts != 1 {
			t.Fatalf("job %d = %+v, want %s done after 1 attempt", i, v, cells[i].Key())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { sw.Status() }); allocs != 0 {
		t.Errorf("Status of a finished sweep allocates %.0f times, want 0", allocs)
	}
	for name, st := range map[string]lab.SweepStatus{"Status": sw.Status(), "Wait": sw.Wait()} {
		if !reflect.DeepEqual(st, final) {
			t.Errorf("%s() = %+v, want the status at finish", name, st)
		}
		if &st.Jobs[0] != &final.Jobs[0] {
			t.Errorf("%s() copied the views", name)
		}
	}
}

// TestDispatcherRetiresFinishedSweeps runs RetainTerminal+1 sweeps to
// completion. The oldest retires: Wait and Status return its final
// summary (counts and state unchanged, Retired set, no jobs), and
// Counts reads the same across every retirement as it did before.
func TestDispatcherRetiresFinishedSweeps(t *testing.T) {
	fake := &fakeRunner{}
	fake.failN.Store(1) // the first sweep ends with one failed cell
	d := lab.NewDispatcher(fake, 1, 0)
	defer d.Close()
	jobs := []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2)}
	var sweeps []*lab.Sweep
	var finals []lab.SweepStatus
	for k := 0; k <= lab.RetainTerminal; k++ {
		before := d.Counts()
		sw, err := d.SubmitJobs("retire", jobs)
		if err != nil {
			t.Fatal(err)
		}
		st := sw.Wait()
		want := before
		want.Sweeps++
		want.Done += st.Done
		want.Failed += st.Failed
		if got := d.Counts(); got != want {
			t.Fatalf("sweep %d: Counts() = %+v, want %+v", k, got, want)
		}
		sweeps = append(sweeps, sw)
		finals = append(finals, st)
	}
	if f := finals[0]; f.Failed != 1 || f.Done != 1 || f.Retired || len(f.Jobs) != 2 {
		t.Fatalf("oldest sweep's final status = %+v", f)
	}
	want := finals[0]
	want.Retired, want.Jobs = true, nil
	for name, got := range map[string]lab.SweepStatus{"Wait": sweeps[0].Wait(), "Status": sweeps[0].Status()} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("retired sweep's %s() = %+v, want %+v", name, got, want)
		}
	}
	if st := sweeps[1].Status(); st.Retired || len(st.Jobs) != 2 {
		t.Errorf("sweep among the newest %d finished retired: %+v", lab.RetainTerminal, st)
	}
}

// TestDispatcherRetireConcurrent finishes sweeps on several workers
// while other goroutines submit, read Counts, and read every sweep's
// Status, Wait and (once it finished) Cancel, so the race detector
// sees finishing and retirement race the readers of counts and views.
// Each snapshot must stay consistent (no cell counted twice or lost)
// and the last Counts must match what ran.
func TestDispatcherRetireConcurrent(t *testing.T) {
	d := lab.NewDispatcher(&fakeRunner{}, 4, 0)
	defer d.Close()
	jobs := []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2), testSpec("fib", 4)}
	const submitters, perSubmitter = 4, 3 * lab.RetainTerminal / 4
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := d.Counts()
			if cells := c.Queued + c.Running + c.Done + c.Failed + c.Cancelled; cells != len(jobs)*c.Sweeps {
				t.Errorf("Counts() = %+v: %d cells in %d sweeps of %d", c, cells, c.Sweeps, len(jobs))
				return
			}
		}
	}()
	// check reads a snapshot's views as well as its counts: a finished
	// sweep's views are shared with every other reader.
	check := func(how string, st lab.SweepStatus) {
		n := map[lab.JobStatus]int{}
		for _, v := range st.Jobs {
			n[v.Status]++
		}
		counts := st.Queued + st.Running + st.Done + st.Failed + st.Cancelled
		if counts != len(jobs) || st.Total != len(jobs) ||
			!st.Retired && (len(st.Jobs) != len(jobs) || n[lab.JobDone] != st.Done || n[lab.JobQueued] != st.Queued) ||
			st.Retired && st.Jobs != nil {
			t.Errorf("%s = %+v", how, st)
		}
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sw := range d.Sweeps() {
					check("Status()", sw.Status())
					select {
					case <-sw.Done():
						check("Wait()", sw.Wait())
						st, err := d.Cancel(sw.ID())
						if err != nil || !st.Finished() {
							t.Errorf("Cancel of a finished sweep = %+v, %v", st, err)
						}
						check("Cancel()", st)
					default:
					}
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				sw, err := d.SubmitJobs("concurrent", jobs)
				if err != nil {
					t.Error(err)
					return
				}
				check("Status()", sw.Status())
				check("Wait()", sw.Wait())
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-read
	readers.Wait()
	c := d.Counts()
	if want := submitters * perSubmitter; c.Sweeps != want || c.Done != want*len(jobs) {
		t.Fatalf("Counts() = %+v, want %d sweeps, %d done", c, want, want*len(jobs))
	}
	retired := 0
	for _, sw := range d.Sweeps() {
		if sw.Status().Retired {
			retired++
		}
	}
	if want := submitters*perSubmitter - lab.RetainTerminal; retired != want {
		t.Fatalf("%d sweeps retired, want %d", retired, want)
	}
}

// progressLog collects a dispatcher's progress events.
type progressLog struct {
	mu     sync.Mutex
	events []lab.ProgressEvent
}

func (p *progressLog) record(ev lab.ProgressEvent) {
	p.mu.Lock()
	p.events = append(p.events, ev)
	p.mu.Unlock()
}

// byStatus counts the logged events per job status.
func (p *progressLog) byStatus() map[lab.JobStatus]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := map[lab.JobStatus]int{}
	for _, ev := range p.events {
		n[ev.Job.Status]++
	}
	return n
}

// TestDispatcherAllHitSettlesAtSubmit submits a journaled sweep whose
// every cell is stored: it is done before SubmitJobs returns, the next
// runner never runs, each cell counts one hit, one done event and one
// attempt, and the journal holds one terminal event per cell, so a
// reopen recovers nothing.
func TestDispatcherAllHitSettlesAtSubmit(t *testing.T) {
	const n = 16
	cells := hitCells(n)
	runner, exec := allHitRunner(t, cells)
	path := journalPath(t)
	j, _, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	d := lab.NewDispatcher(runner, 2, 0)
	defer d.Close()
	d.Journal = j
	var log progressLog
	d.OnProgress = log.record
	sw, err := d.SubmitJobs("all-hit", cells)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sw.Done():
	default:
		t.Error("an all-hit sweep was not done when SubmitJobs returned")
	}
	st := waitSweep(t, sw)
	if st.State != lab.SweepDone || st.Done != n {
		t.Fatalf("final status = %+v", st)
	}
	for _, v := range st.Jobs {
		if v.Status != lab.JobDone || v.Attempts != 1 {
			t.Errorf("job %+v, want done after 1 attempt", v)
		}
	}
	if calls := exec.calls.Load(); calls != 0 {
		t.Errorf("next runner ran %d times", calls)
	}
	if hits := runner.Hits(); hits != n {
		t.Errorf("Hits() = %d, want %d", hits, n)
	}
	if got := log.byStatus(); got[lab.JobDone] != n || len(got) != 1 {
		t.Errorf("progress events by status = %v, want %d done and nothing else", got, n)
	}
	j.Close()
	_, rec, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Events != n+1 || len(rec.Sweeps) != 0 {
		t.Fatalf("journal replayed %d events and %d unfinished sweeps, want %d and 0", rec.Events, len(rec.Sweeps), n+1)
	}
}

// TestDispatcherMixedSweepRunsMissesOnce stores every other cell of a
// sweep: each miss runs exactly once and alone among the cells goes
// through running, while the stored cells count as hits.
func TestDispatcherMixedSweepRunsMissesOnce(t *testing.T) {
	const n = 12
	cells := hitCells(n)
	var stored []lab.JobSpec
	for i := 0; i < n; i += 2 {
		stored = append(stored, cells[i])
	}
	runner, exec := allHitRunner(t, stored)
	d := lab.NewDispatcher(runner, 2, 0)
	defer d.Close()
	var log progressLog
	d.OnProgress = log.record
	sw, err := d.SubmitJobs("mixed", cells)
	if err != nil {
		t.Fatal(err)
	}
	st := waitSweep(t, sw)
	misses := n - len(stored)
	if st.State != lab.SweepDone || st.Total != n || st.Done != n {
		t.Fatalf("final status = %+v", st)
	}
	for _, v := range st.Jobs {
		if v.Status != lab.JobDone || v.Attempts != 1 {
			t.Errorf("job %+v, want done after 1 attempt", v)
		}
	}
	if calls := exec.calls.Load(); calls != int64(misses) {
		t.Errorf("next runner ran %d times, want %d", calls, misses)
	}
	if h, m := runner.Hits(), runner.Misses(); h != int64(len(stored)) || m != int64(misses) {
		t.Errorf("hits/misses = %d/%d, want %d/%d", h, m, len(stored), misses)
	}
	want := map[lab.JobStatus]int{lab.JobRunning: misses, lab.JobDone: n}
	if got := log.byStatus(); !reflect.DeepEqual(got, want) {
		t.Errorf("progress events by status = %v, want %v", got, want)
	}
	if c := d.Counts(); c.Done != n || c.Queued != 0 || c.Running != 0 {
		t.Errorf("Counts() = %+v", c)
	}
}

// TestDispatcherResumeStoredRequeuesNothing recovers a journaled sweep
// none of whose cells reached done, though the store holds them all.
// Resumed onto a dispatcher whose only worker is busy, the sweep is
// done when Resume returns: no cell waited for a slot or ran again.
func TestDispatcherResumeStoredRequeuesNothing(t *testing.T) {
	cells := hitCells(6)
	path := journalPath(t)
	j, _, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.BeginSweep("crashed", 0, cells)
	j.Close()
	j2, rec, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rec.Sweeps) != 1 || len(rec.Sweeps[0].Pending()) != len(cells) {
		t.Fatalf("recovery = %+v", rec.Sweeps)
	}

	runner, exec := allHitRunner(t, cells)
	exec.block = make(chan struct{})
	d := lab.NewDispatcher(runner, 1, 0)
	defer d.Close()
	defer close(exec.block)
	d.Journal = j2
	var log progressLog
	d.OnProgress = log.record
	busy, err := d.SubmitJobs("busy", []lab.JobSpec{testSpec("fib", 1)})
	if err != nil {
		t.Fatal(err)
	}
	for busy.Status().Running != 1 {
		time.Sleep(time.Millisecond)
	}
	sweeps, resumed, err := d.Resume(rec)
	if err != nil {
		t.Fatal(err)
	}
	if sweeps != 1 || resumed != len(cells) {
		t.Fatalf("resumed %d sweeps / %d cells, want 1 / %d", sweeps, resumed, len(cells))
	}
	sw := d.Sweeps()[1]
	select {
	case <-sw.Done():
	default:
		t.Fatalf("resumed all-stored sweep not done when Resume returned: %d queued", sw.Status().Queued)
	}
	if st := sw.Status(); st.Done != len(cells) {
		t.Errorf("resumed sweep = %+v", st)
	}
	if c := d.Counts(); c.Queued != 0 || c.Running != 1 {
		t.Errorf("Counts() = %+v, want nothing queued and only the busy cell running", c)
	}
	if hits := runner.Hits(); hits != int64(len(cells)) {
		t.Errorf("Hits() = %d, want %d", hits, len(cells))
	}
	if got := log.byStatus(); got[lab.JobDone] != len(cells) {
		t.Errorf("progress events by status = %v, want %d done", got, len(cells))
	}
}
