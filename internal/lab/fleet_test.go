package lab_test

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bots/internal/lab"
)

// fakeClock is a hand-advanced time source; with it the fleet runs no
// background expiry ticker, so tests drive ExpireDue deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func testFleet(t *testing.T, clock *fakeClock, store *lab.Store) *lab.Fleet {
	t.Helper()
	f := lab.NewFleet(lab.FleetConfig{
		LeaseTTL: 10 * time.Second,
		Store:    store,
		Clock:    clock.Now,
	})
	t.Cleanup(f.Close)
	return f
}

func fakeRecordFor(spec lab.JobSpec, worker string) *lab.Record {
	spec = spec.Normalize()
	r := &lab.Record{Key: spec.Key(), Spec: spec, Verified: true, Tasks: 1}
	r.Host.Worker = worker
	return r
}

func waitTicket(t *testing.T, ticket *lab.FleetTicket) (*lab.Record, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return ticket.Wait(ctx)
}

func TestFleetLeaseGrantAndComplete(t *testing.T) {
	clock := newFakeClock()
	f := testFleet(t, clock, nil)
	w := f.Register("alpha", 2)

	ticket := f.Enqueue(testSpec("fib", 2))
	leases, err := f.Lease(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 1 {
		t.Fatalf("got %d leases, want 1", len(leases))
	}
	l := leases[0]
	if l.Key != testSpec("fib", 2).Key() {
		t.Fatalf("lease = %+v", l)
	}
	running := f.Status().Workers[0].Running
	if want := clock.Now().Add(10 * time.Second); len(running) != 1 || running[0].LeaseID != l.ID || !running[0].Deadline.Equal(want) {
		t.Fatalf("running = %+v, want lease %s with deadline %v", running, l.ID, want)
	}

	f.Complete(l.ID, fakeRecordFor(l.Spec, "alpha"), "")
	rec, err := waitTicket(t, ticket)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Host.Worker != "alpha" {
		t.Fatalf("worker provenance = %q, want alpha", rec.Host.Worker)
	}
	st := f.Status()
	if st.LeasesGranted != 1 || st.LeasesActive != 0 || st.JobsCompleted != 1 {
		t.Fatalf("status = %+v", st)
	}
	if st.Workers[0].Done != 1 || st.Workers[0].State != lab.WorkerIdle {
		t.Fatalf("worker view = %+v", st.Workers[0])
	}
}

// TestRemoteRunnerRun drives RemoteRunner through the plain Runner
// interface, the one report.Render and CachedRunner hold: Run blocks
// until a worker leases the cell and completes it, and returns that
// worker's record.
func TestRemoteRunnerRun(t *testing.T) {
	f := testFleet(t, newFakeClock(), nil)
	w := f.Register("alpha", 1)
	type result struct {
		rec *lab.Record
		err error
	}
	got := make(chan result, 1)
	go func() {
		rec, err := lab.NewRemoteRunner(f).Run(testSpec("fib", 2))
		got <- result{rec, err}
	}()
	var leases []lab.Lease
	waitCond(t, 5*time.Second, func() bool {
		leases, _ = f.Lease(w, 1)
		return len(leases) == 1
	})
	f.Complete(leases[0].ID, fakeRecordFor(leases[0].Spec, "alpha"), "")
	r := <-got
	if r.err != nil || r.rec.Key != testSpec("fib", 2).Key() || r.rec.Host.Worker != "alpha" {
		t.Fatalf("Run = %+v, %v; want alpha's record of %s", r.rec, r.err, testSpec("fib", 2).Key())
	}
}

func TestFleetHeartbeatRenewsDeadline(t *testing.T) {
	clock := newFakeClock()
	f := testFleet(t, clock, nil)
	w := f.Register("alpha", 1)
	ticket := f.Enqueue(testSpec("fib", 1))
	leases, _ := f.Lease(w, 1)

	// 8s in (deadline at 10s), a heartbeat pushes the deadline out.
	clock.Advance(8 * time.Second)
	renewed, lost, err := f.Heartbeat(w, []lab.HeartbeatProgress{{ID: leases[0].ID, ElapsedNS: int64(8 * time.Second)}})
	if err != nil || len(renewed) != 1 || len(lost) != 0 {
		t.Fatalf("heartbeat = %v %v %v", renewed, lost, err)
	}
	// Another 8s: past the original deadline but inside the renewal.
	clock.Advance(8 * time.Second)
	if n := f.ExpireDue(); n != 0 {
		t.Fatalf("expired %d leases after renewal, want 0", n)
	}
	// 10 more seconds without a heartbeat: now it expires, and the
	// ticket gets the loss at once; the fleet queues nothing again.
	clock.Advance(10 * time.Second)
	if n := f.ExpireDue(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	if _, err := waitTicket(t, ticket); err == nil || !strings.Contains(err.Error(), "expired") {
		t.Fatalf("err = %v, want the lease's expiry", err)
	}
	if again, _ := f.Lease(w, 1); len(again) != 0 {
		t.Fatalf("expired job leased again: %+v", again)
	}
	st := f.Status()
	if st.LeasesExpired != 1 || st.JobsFailed != 1 || st.QueueDepth != 0 {
		t.Fatalf("status = %+v", st)
	}
}

// TestFleetOneRetryBudget runs one cell through a dispatcher with
// retries 2 over a fleet whose only worker fails every lease. The
// dispatcher's budget is the only one: the fleet grants exactly 3
// leases, one per attempt, and the cell ends failed after 3 attempts.
func TestFleetOneRetryBudget(t *testing.T) {
	clock := newFakeClock()
	f := testFleet(t, clock, nil)
	w := f.Register("flaky", 1)
	d := lab.NewDispatcher(lab.NewRemoteRunner(f), 1, 2)
	d.RetryBase, d.RetryCap = time.Millisecond, time.Millisecond
	defer d.Close()
	sw, err := d.SubmitJobs("budget", []lab.JobSpec{testSpec("fib", 1)})
	if err != nil {
		t.Fatal(err)
	}
	// The worker fails whatever it leases. Advancing the fake clock
	// opens any backoff gate the fleet might keep; with no expiry
	// ticker under a fake clock, no lease expires.
	for done := false; !done; {
		leases, err := f.Lease(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range leases {
			f.Complete(l.ID, nil, "bench exploded")
		}
		clock.Advance(time.Second)
		select {
		case <-sw.Done():
			done = true
		case <-time.After(time.Millisecond):
		}
	}
	st := sw.Status()
	if j := st.Jobs[0]; j.Status != lab.JobFailed || j.Attempts != 3 || !strings.Contains(j.Error, "bench exploded") {
		t.Fatalf("cell = %+v, want failed after 3 attempts with the worker's error", j)
	}
	if fst := f.Status(); fst.LeasesGranted != 3 || fst.JobsFailed != 3 || fst.QueueDepth != 0 {
		t.Fatalf("fleet status = %+v, want 3 leases granted and failed, nothing queued", fst)
	}
}

// TestFleetExpireRacesComplete races ExpireDue against the worker's
// Complete on one overdue lease, many times. Whichever takes the lease
// decides the ticket's one outcome: the record, or the expiry with the
// record landing as an orphan. A second delivery would block its
// sender on the ticket's one-slot channel.
func TestFleetExpireRacesComplete(t *testing.T) {
	outcomes := map[bool]int{}
	for i := 0; i < 200; i++ {
		clock := newFakeClock()
		f := testFleet(t, clock, nil)
		w := f.Register("alpha", 1)
		ticket := f.Enqueue(testSpec("fib", 2))
		leases, _ := f.Lease(w, 1)
		if len(leases) != 1 {
			t.Fatalf("got %d leases, want 1", len(leases))
		}
		clock.Advance(11 * time.Second)
		racers := []func(){
			func() { f.ExpireDue() },
			func() { f.Complete(leases[0].ID, fakeRecordFor(leases[0].Spec, "alpha"), "") },
		}
		if i%2 == 1 {
			racers[0], racers[1] = racers[1], racers[0]
		}
		start, both := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		for _, race := range racers {
			wg.Add(1)
			go func() { defer wg.Done(); <-start; race() }()
		}
		go func() { wg.Wait(); close(both) }()
		close(start)
		select {
		case <-both:
		case <-time.After(5 * time.Second):
			t.Fatal("ExpireDue or Complete blocked delivering a second outcome")
		}
		rec, err := waitTicket(t, ticket)
		st := f.Status()
		expired := err != nil
		outcomes[expired]++
		switch {
		case !expired && rec != nil && st.JobsCompleted == 1 && st.LeasesExpired == 0 && st.OrphanResults == 0:
		case expired && st.JobsCompleted == 0 && st.LeasesExpired == 1 && st.OrphanResults == 1:
		default:
			t.Fatalf("round %d: ticket = %v, %v; status = %+v", i, rec, err, st)
		}
	}
	t.Logf("completed first %d times, expired first %d times", outcomes[false], outcomes[true])
}

func TestFleetAbandonAndOrphanResult(t *testing.T) {
	clock := newFakeClock()
	store, err := lab.OpenStore(filepath.Join(t.TempDir(), "lab.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	f := testFleet(t, clock, store)
	w := f.Register("alpha", 1)

	// Abandon while queued: the job vanishes from the queue.
	queued := f.Enqueue(testSpec("fib", 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := queued.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if leases, _ := f.Lease(w, 1); len(leases) != 0 {
		t.Fatalf("abandoned job still leased: %+v", leases)
	}

	// Abandon while leased: the worker's record becomes a store-bound
	// orphan instead of being thrown away.
	leased := f.Enqueue(testSpec("fib", 2))
	leases, _ := f.Lease(w, 1)
	if len(leases) != 1 {
		t.Fatalf("got %d leases, want 1", len(leases))
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := leased.Wait(ctx2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	f.Complete(leases[0].ID, fakeRecordFor(leases[0].Spec, "alpha"), "")
	if _, ok := store.Get(testSpec("fib", 2).Key()); !ok {
		t.Fatal("orphan record did not land in the store")
	}
	if st := f.Status(); st.OrphanResults != 1 {
		t.Fatalf("orphans = %d, want 1", st.OrphanResults)
	}

	// A completion for a lease the fleet no longer knows (expired and
	// forgotten) still delivers its record to the store.
	f.Complete("l-unknown", fakeRecordFor(testSpec("fib", 4), "alpha"), "")
	if _, ok := store.Get(testSpec("fib", 4).Key()); !ok {
		t.Fatal("unknown-lease record did not land in the store")
	}
}

func TestFleetUnknownWorker(t *testing.T) {
	clock := newFakeClock()
	f := testFleet(t, clock, nil)
	if _, err := f.Lease("w999", 1); !errors.Is(err, lab.ErrUnknownWorker) {
		t.Fatalf("lease err = %v, want ErrUnknownWorker", err)
	}
	if _, _, err := f.Heartbeat("w999", nil); !errors.Is(err, lab.ErrUnknownWorker) {
		t.Fatalf("heartbeat err = %v, want ErrUnknownWorker", err)
	}
	// Deregistering a live worker expires its leases and fails their
	// jobs at once.
	w := f.Register("alpha", 1)
	ticket := f.Enqueue(testSpec("fib", 1))
	if leases, _ := f.Lease(w, 1); len(leases) != 1 {
		t.Fatalf("got %d leases", len(leases))
	}
	f.Deregister(w)
	if _, err := f.Lease(w, 1); !errors.Is(err, lab.ErrUnknownWorker) {
		t.Fatalf("post-deregister lease err = %v, want ErrUnknownWorker", err)
	}
	if _, err := waitTicket(t, ticket); err == nil || !strings.Contains(err.Error(), "deregistered") {
		t.Fatalf("ticket err = %v, want the worker's deregistration", err)
	}
	st := f.Status()
	if len(st.Workers) != 0 || st.LeasesExpired != 1 || st.JobsFailed != 1 || st.QueueDepth != 0 {
		t.Fatalf("status = %+v", st)
	}
}
