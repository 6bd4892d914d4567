package lab_test

import (
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
// while other goroutines submit and read Counts, so the race detector
// sees retirement race the readers; each Counts snapshot must stay
// consistent (no cell counted twice or lost) and the last must match
// what ran.
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
				sw.Status()
				sw.Wait()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-read
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
