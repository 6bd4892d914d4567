package lab_test

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bots/internal/lab"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "fleet.journal")
}

// funcRunner adapts a closure to lab.Runner for tests that need
// per-spec behaviour (the shared fakeRunner only counts and fails).
type funcRunner func(lab.JobSpec) (*lab.Record, error)

func (f funcRunner) Run(spec lab.JobSpec) (*lab.Record, error) { return f(spec) }

func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJournalRoundTripRecovery is the core recovery contract: a
// journal that saw a sweep submitted and some cells finish replays
// into a Recovery whose Pending() is exactly the unfinished cells. Its
// last frame is a `requeue` event, which journals written while the
// fleet kept its own retries still hold: replay counts it and reads on.
func TestJournalRoundTripRecovery(t *testing.T) {
	path := journalPath(t)
	j, rec, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Events != 0 || len(rec.Sweeps) != 0 {
		t.Fatalf("fresh journal recovery = %+v", rec)
	}
	jobs := []lab.JobSpec{
		testSpec("fib", 1).Normalize(),
		testSpec("fib", 2).Normalize(),
		testSpec("fib", 4).Normalize(),
	}
	id := j.BeginSweep("night-run", 2, jobs)
	if id == "" {
		t.Fatal("BeginSweep returned empty id")
	}
	j.LeaseGranted("l1", jobs[0].Key(), "w1", 1)
	j.LeaseRenewed("l1")
	j.LeaseCompleted("l1", jobs[0].Key(), true)
	j.JobDone(id, jobs[0].Key(), lab.JobDone)
	j.Close()
	requeue := `{"t":"requeue","key":"` + jobs[1].Key() + `","reason":"lease expired"}`
	frame := fmt.Sprintf(`{"crc":"%08x","p":%s}`+"\n", crc32.Checksum([]byte(requeue), crc32.MakeTable(crc32.Castagnoli)), requeue)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, rec2, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Events != 6 {
		t.Fatalf("replayed %d events, want 6", rec2.Events)
	}
	if rec2.Repair != nil || rec2.Grants != 1 || rec2.Renewals != 1 || rec2.Completions != 1 {
		t.Fatalf("lease counts = %+v", rec2)
	}
	if len(rec2.Sweeps) != 1 {
		t.Fatalf("recovered %d sweeps, want 1", len(rec2.Sweeps))
	}
	sw := rec2.Sweeps[0]
	if sw.JournalID != id || sw.Name != "night-run" || sw.Instances != 2 {
		t.Fatalf("recovered sweep = %+v", sw)
	}
	pending := sw.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending = %d cells, want 2 (one finished)", len(pending))
	}
	for _, p := range pending {
		if p.Key() == jobs[0].Key() {
			t.Fatal("finished cell came back as pending")
		}
	}
}

// TestJournalCompactionDropsFinishedWork pins the growth bound:
// reopening drops finished and cancelled sweeps entirely, and a
// second reopen of a fully-finished journal replays zero events.
func TestJournalCompactionDropsFinishedWork(t *testing.T) {
	path := journalPath(t)
	j, _, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	done := []lab.JobSpec{testSpec("fib", 1).Normalize()}
	idDone := j.BeginSweep("finished", 0, done)
	j.JobDone(idDone, done[0].Key(), lab.JobDone)
	idCancelled := j.BeginSweep("cancelled", 0, []lab.JobSpec{testSpec("fib", 2).Normalize()})
	j.SweepCancelled(idCancelled)
	live := []lab.JobSpec{testSpec("nqueens", 1).Normalize()}
	idLive := j.BeginSweep("live", 0, live)
	j.Close()

	_, rec, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Sweeps) != 1 || rec.Sweeps[0].JournalID != idLive {
		t.Fatalf("recovery kept %+v, want only the live sweep", rec.Sweeps)
	}
	// The compacted file holds only the live sweep's submission.
	_, rec2, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Events != 1 || len(rec2.Sweeps) != 1 {
		t.Fatalf("second replay: %d events, %d sweeps; want 1 and 1", rec2.Events, len(rec2.Sweeps))
	}
	// And a later sweep ID never collides with a replayed one.
	j3, _, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if next := j3.BeginSweep("next", 0, done); next == idLive || next == idDone {
		t.Fatalf("sweep id %s reused across incarnations", next)
	}
}

// TestJournalTornTailTolerated: a coordinator killed mid-append loses
// exactly the torn line; the journal reopens and recovers the rest.
func TestJournalTornTailTolerated(t *testing.T) {
	path := journalPath(t)
	j, _, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []lab.JobSpec{testSpec("fib", 1).Normalize()}
	j.BeginSweep("survivor", 0, jobs)
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":"0badf00d","p":{"t":"job","sw`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, rec, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatalf("torn journal failed to open: %v", err)
	}
	if rec.Repair == nil {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Sweeps) != 1 || rec.Sweeps[0].Name != "survivor" {
		t.Fatalf("recovery after tear = %+v", rec.Sweeps)
	}
}

// TestJournalClosedAppendsAreNoOps: a closed journal swallows writes,
// so a crash simulation can sever journaling while its dispatcher
// drains without polluting the file the next incarnation reads.
func TestJournalClosedAppendsAreNoOps(t *testing.T) {
	path := journalPath(t)
	j, _, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	id := j.BeginSweep("s", 0, []lab.JobSpec{testSpec("fib", 1).Normalize()})
	j.Close()
	j.JobDone(id, "k", lab.JobFailed)
	j.LeaseGranted("l9", "k", "w9", 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "l9") || strings.Contains(string(raw), "failed") {
		t.Fatal("closed journal accepted appends")
	}
	var nilJ *lab.Journal
	nilJ.JobDone("x", "y", lab.JobDone) // nil receiver must not panic
	nilJ.Close()
}

// TestDispatcherJournalsAndResumes drives the full loop in-process:
// a journaled dispatcher finishes half a sweep, "crashes", and a new
// dispatcher resumes only the unfinished cells.
func TestDispatcherJournalsAndResumes(t *testing.T) {
	path := journalPath(t)
	j, _, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []lab.JobSpec{
		testSpec("fib", 1).Normalize(),
		testSpec("fib", 2).Normalize(),
		testSpec("fib", 4).Normalize(),
		testSpec("fib", 8).Normalize(),
	}
	// Incarnation A: runner succeeds for threads 1 and 2, hangs the
	// rest past the "crash".
	blocked := make(chan struct{})
	runA := funcRunner(func(spec lab.JobSpec) (*lab.Record, error) {
		if spec.Threads > 2 {
			<-blocked
		}
		return fakeRecordFor(spec, "a"), nil
	})
	dispA := lab.NewDispatcher(runA, 4, 0)
	dispA.Journal = j
	sw, err := dispA.SubmitJobs("resumable", jobs)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, 5*time.Second, func() bool { return sw.Status().Done == 2 })
	j.Close() // crash: journaling severed mid-sweep
	close(blocked)
	dispA.Close()

	// Incarnation B replays and resumes.
	j2, rec, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var ranMu sync.Mutex
	var ran []int
	runB := funcRunner(func(spec lab.JobSpec) (*lab.Record, error) {
		ranMu.Lock()
		ran = append(ran, spec.Threads)
		ranMu.Unlock()
		return fakeRecordFor(spec, "b"), nil
	})
	dispB := lab.NewDispatcher(runB, 2, 0)
	dispB.Journal = j2
	sweeps, cells, err := dispB.Resume(rec)
	if err != nil {
		t.Fatal(err)
	}
	if sweeps != 1 || cells != 2 {
		t.Fatalf("resumed %d sweeps / %d cells, want 1 / 2", sweeps, cells)
	}
	all := dispB.Sweeps()
	if len(all) != 1 {
		t.Fatalf("dispatcher B has %d sweeps", len(all))
	}
	st := all[0].Wait()
	if st.Done != 2 || st.Failed != 0 {
		t.Fatalf("resumed sweep finished %+v", st)
	}
	for _, th := range ran {
		if th <= 2 {
			t.Fatalf("cell with threads=%d re-ran despite journaled completion", th)
		}
	}
	dispB.Close()

	// Incarnation C: everything finished, nothing to recover.
	_, rec3, err := lab.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Sweeps) != 0 {
		t.Fatalf("fully finished journal still recovers %+v", rec3.Sweeps)
	}
}
