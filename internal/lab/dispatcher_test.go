package lab_test

import (
	"runtime"
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
