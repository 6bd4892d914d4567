package lab_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bots/internal/lab"
)

// fakeRunner is a Runner test double: it fabricates a Record per
// spec, counting executions, optionally failing the first N calls.
type fakeRunner struct {
	calls    atomic.Int64
	failN    atomic.Int64
	inflight atomic.Int64
	maxInfl  atomic.Int64
	block    chan struct{} // when non-nil, Run waits on it
}

func (f *fakeRunner) Run(spec lab.JobSpec) (*lab.Record, error) {
	cur := f.inflight.Add(1)
	defer f.inflight.Add(-1)
	for {
		prev := f.maxInfl.Load()
		if cur <= prev || f.maxInfl.CompareAndSwap(prev, cur) {
			break
		}
	}
	if f.block != nil {
		<-f.block
	}
	f.calls.Add(1)
	if f.failN.Add(-1) >= 0 {
		return nil, errFake
	}
	spec = spec.Normalize()
	return &lab.Record{Key: spec.Key(), Spec: spec, Verified: true, Tasks: 1}, nil
}

type fakeErr string

func (e fakeErr) Error() string { return string(e) }

const errFake = fakeErr("fake runner: injected failure")

func testSpec(bench string, threads int) lab.JobSpec {
	return lab.JobSpec{Bench: bench, Version: "manual-tied", Class: "test", Threads: threads}
}

func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lab.jsonl")
	s, err := lab.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	specA, specB := testSpec("fib", 1).Normalize(), testSpec("fib", 2).Normalize()
	for _, sp := range []lab.JobSpec{specA, specB} {
		if err := s.Put(&lab.Record{Key: sp.Key(), Spec: sp, Verified: true}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("store len = %d, want 2", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := lab.OpenStore(path)
	if err != nil {
		t.Fatalf("reopening store: %v", err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("reloaded store len = %d, want 2", re.Len())
	}
	got, ok := re.Get(specB.Key())
	if !ok || got.Spec.Threads != 2 {
		t.Fatalf("reloaded record = %+v, %v", got, ok)
	}
	recs := re.Records()
	if len(recs) != 2 || recs[0].Key != specA.Key() || recs[1].Key != specB.Key() {
		t.Fatalf("record order not preserved: %+v", recs)
	}
}

func TestStoreLastRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lab.jsonl")
	s, err := lab.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := testSpec("fib", 1).Normalize()
	s.Put(&lab.Record{Key: sp.Key(), Spec: sp, ElapsedNS: 100})
	s.Put(&lab.Record{Key: sp.Key(), Spec: sp, ElapsedNS: 200})
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1 (same key supersedes)", s.Len())
	}
	s.Close()
	re, err := lab.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _ := re.Get(sp.Key())
	if got == nil || got.ElapsedNS != 200 {
		t.Fatalf("reloaded record = %+v, want the later append", got)
	}
}

func TestStoreSelectFilters(t *testing.T) {
	s, _ := lab.OpenStore("")
	for _, sp := range []lab.JobSpec{testSpec("fib", 1), testSpec("fib", 2), testSpec("nqueens", 2)} {
		n := sp.Normalize()
		s.Put(&lab.Record{Key: n.Key(), Spec: n, Verified: true})
	}
	if got := len(s.Select(lab.Filter{Bench: "fib"})); got != 2 {
		t.Errorf("bench filter matched %d, want 2", got)
	}
	if got := len(s.Select(lab.Filter{Threads: 2})); got != 2 {
		t.Errorf("threads filter matched %d, want 2", got)
	}
	if got := len(s.Select(lab.Filter{Bench: "fib", Threads: 2})); got != 1 {
		t.Errorf("combined filter matched %d, want 1", got)
	}
	f := false
	if got := len(s.Select(lab.Filter{Verified: &f})); got != 0 {
		t.Errorf("verified=false filter matched %d, want 0", got)
	}
	want := "bench=fib version= class= threads=2 key="
	if got := (lab.Filter{Bench: "fib", Threads: 2}).String(); got != want {
		t.Errorf("Filter.String() = %q, want %q", got, want)
	}
}

// writeStoreRecords populates a fresh store file with n fib records
// and returns the path plus the keys written.
func writeStoreRecords(t *testing.T, n int) (string, []string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lab.jsonl")
	s, err := lab.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < n; i++ {
		sp := testSpec("fib", i+1).Normalize()
		if err := s.Put(&lab.Record{Key: sp.Key(), Spec: sp, Verified: true}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, sp.Key())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path, keys
}

// TestStoreTornTailTruncated simulates a crash mid-Put: the final
// line is cut partway through. The reopen must keep every complete
// record, drop the torn tail with a repair report, and leave the file
// appendable (the next Put lands on a clean line boundary).
func TestStoreTornTailTruncated(t *testing.T) {
	path, keys := writeStoreRecords(t, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file mid-way through the last line, newline included.
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := lab.OpenStore(path)
	if err != nil {
		t.Fatalf("reopening torn store failed: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded store len = %d, want 2 (torn record dropped)", re.Len())
	}
	rep := re.TornTail()
	if rep == nil || rep.DroppedBytes == 0 {
		t.Fatalf("torn-tail repair = %+v, want dropped bytes reported", rep)
	}
	if _, ok := re.Get(keys[2]); ok {
		t.Fatal("torn record survived the reload")
	}
	// The store must keep working after the repair: re-Put the lost
	// cell, close, reload, and see all three.
	sp3 := testSpec("fib", 3).Normalize()
	if err := re.Put(&lab.Record{Key: sp3.Key(), Spec: sp3, Verified: true}); err != nil {
		t.Fatal(err)
	}
	re.Close()
	again, err := lab.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != 3 || again.TornTail() != nil {
		t.Fatalf("post-repair reload: len=%d repair=%+v, want 3 records and no repair", again.Len(), again.TornTail())
	}
}

// TestStoreTornTailMissingNewline covers the other tear: the final
// record is intact but the terminator is gone. The record is kept and
// the newline restored, so a later append cannot splice onto it.
func TestStoreTornTailMissingNewline(t *testing.T) {
	path, keys := writeStoreRecords(t, 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.TrimSuffix(string(raw), "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := lab.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded store len = %d, want 2 (intact record kept)", re.Len())
	}
	if re.TornTail() == nil {
		t.Fatal("missing-newline repair not reported")
	}
	sp := testSpec("nqueens", 2).Normalize()
	if err := re.Put(&lab.Record{Key: sp.Key(), Spec: sp, Verified: true}); err != nil {
		t.Fatal(err)
	}
	re.Close()
	again, err := lab.OpenStore(path)
	if err != nil {
		t.Fatalf("reload after repaired append failed: %v", err)
	}
	defer again.Close()
	if again.Len() != 3 {
		t.Fatalf("len = %d, want 3", again.Len())
	}
	if _, ok := again.Get(keys[1]); !ok {
		t.Fatal("repaired record lost")
	}
}

// TestStoreMidFileCorruptionStillFails pins the boundary of the
// tolerance: damage that is NOT a torn tail (a checksum-failing line
// with valid lines after it) is real corruption and must fail the
// open rather than silently dropping records.
func TestStoreMidFileCorruptionStillFails(t *testing.T) {
	path, _ := writeStoreRecords(t, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first line's payload.
	mangled := []byte(string(raw))
	idx := strings.Index(string(mangled), `"verified":true`)
	if idx < 0 {
		t.Fatal("no payload byte to flip")
	}
	mangled[idx+12] = 'X' // `true` -> `trXe` under an unchanged crc
	if err := os.WriteFile(path, mangled, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lab.OpenStore(path); err == nil {
		t.Fatal("mid-file corruption did not fail the open")
	}
}

// TestStoreUnframedLinesAreDamage: a bare Record line (no crc
// wrapper) is damage like any other. Mid-file it fails the open; as
// the final line it is truncated as a torn tail and reported.
func TestStoreUnframedLinesAreDamage(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec("fib", 1).Normalize()
	bare := `{"key":"` + sp.Key() + `","spec":{"bench":"fib","version":"manual-tied","class":"test","threads":1,"simulate":1},"host":{"os":"linux","arch":"amd64","cpus":1,"go_version":"go"},"created_at":"2026-01-01T00:00:00Z","seq":{"elapsed_ns":1,"work":1,"mem_bytes":0},"elapsed_ns":1,"stats":null,"tasks":1,"sim":null,"verified":true}` + "\n"
	framedPath := filepath.Join(dir, "framed.jsonl")
	s, err := lab.OpenStore(framedPath)
	if err != nil {
		t.Fatal(err)
	}
	sp2 := testSpec("fib", 2).Normalize()
	if err := s.Put(&lab.Record{Key: sp2.Key(), Spec: sp2, Verified: true}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	framed, err := os.ReadFile(framedPath)
	if err != nil {
		t.Fatal(err)
	}

	mid := filepath.Join(dir, "mid.jsonl")
	if err := os.WriteFile(mid, append([]byte(bare), framed...), 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := lab.OpenStore(mid); err == nil {
		s.Close()
		t.Fatal("a store with an unframed line mid-file opened")
	}

	tail := filepath.Join(dir, "tail.jsonl")
	if err := os.WriteFile(tail, append(framed, bare...), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := lab.OpenStore(tail)
	if err != nil {
		t.Fatalf("unframed final line should be repaired as a torn tail: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("store len = %d, want 1 (the framed record)", re.Len())
	}
	if r := re.TornTail(); r == nil || r.DroppedBytes != int64(len(bare)) {
		t.Fatalf("TornTail = %+v, want %d dropped bytes", r, len(bare))
	}
	if st, err := os.Stat(tail); err != nil || st.Size() != int64(len(framed)) {
		t.Fatalf("file not truncated back to the framed record (stat %v, %v)", st, err)
	}
}

func TestCachedRunnerHitSkipsExecution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lab.jsonl")
	store, err := lab.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeRunner{}
	c := lab.NewCachedRunner(store, fake)
	sp := testSpec("fib", 2)
	if _, err := c.Run(sp); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(sp); err != nil {
		t.Fatal(err)
	}
	if fake.calls.Load() != 1 {
		t.Fatalf("executed %d times, want 1", fake.calls.Load())
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
	store.Close()

	// Cache hits must survive a process restart (store reload).
	re, err := lab.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	c2 := lab.NewCachedRunner(re, fake)
	if _, err := c2.Run(sp); err != nil {
		t.Fatal(err)
	}
	if fake.calls.Load() != 1 {
		t.Fatalf("reloaded store re-executed: %d calls", fake.calls.Load())
	}
	if c2.Hits() != 1 {
		t.Fatalf("reloaded store hits = %d, want 1", c2.Hits())
	}
}

func TestCachedRunnerCoalescesConcurrentMisses(t *testing.T) {
	store, _ := lab.OpenStore("")
	fake := &fakeRunner{block: make(chan struct{})}
	c := lab.NewCachedRunner(store, fake)
	sp := testSpec("fib", 4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Run(sp); err != nil {
				t.Error(err)
			}
		}()
	}
	close(fake.block)
	wg.Wait()
	if fake.calls.Load() != 1 {
		t.Fatalf("concurrent misses executed %d times, want 1", fake.calls.Load())
	}
}
