package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// buildDepTrace records a diamond with priorities through the public
// Recorder API, as the runtime would: root spawns A (writer), B and C
// (readers of A), and D (writer depending on both readers).
func buildDepTrace(t *testing.T) *Trace {
	t.Helper()
	r := NewRecorder()
	root := r.Root()
	root.AddWork(4)
	a := r.Spawn(root, false, false, 16)
	a.AddWork(10)
	a.SetPriority(2)
	b := r.Spawn(root, false, false, 16)
	b.AddWork(5)
	b.DependsOn(a)
	c := r.Spawn(root, true, false, 16)
	c.AddWork(5)
	c.DependsOn(a)
	d := r.Spawn(root, false, false, 16)
	d.AddWork(7)
	d.DependsOn(b)
	d.DependsOn(c)
	d.DependsOn(b) // duplicate: must collapse
	tr := r.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatalf("built trace invalid: %v", err)
	}
	return tr
}

func TestDepEdgesRecorded(t *testing.T) {
	tr := buildDepTrace(t)
	if got := tr.Tasks[1].Priority; got != 2 {
		t.Errorf("task A priority = %d, want 2", got)
	}
	if got := tr.Tasks[2].Deps; !reflect.DeepEqual(got, []int32{1}) {
		t.Errorf("task B deps = %v, want [1]", got)
	}
	if got := tr.Tasks[4].Deps; !reflect.DeepEqual(got, []int32{2, 3}) {
		t.Errorf("task D deps = %v, want [2 3] (duplicate collapsed)", got)
	}
}

// TestDepRoundTrip is the io-format check: dependence edges and
// priorities must survive WriteTo → ReadTrace byte-for-byte.
func TestDepRoundTrip(t *testing.T) {
	tr := buildDepTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	wrote := append([]byte(nil), buf.Bytes()...)
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if got.NumRoots != tr.NumRoots {
		t.Errorf("NumRoots = %d, want %d", got.NumRoots, tr.NumRoots)
	}
	if got.Tasks[1].Priority != 2 {
		t.Errorf("loaded priority = %d, want 2", got.Tasks[1].Priority)
	}
	if !reflect.DeepEqual(got.Tasks[4].Deps, []int32{2, 3}) {
		t.Errorf("loaded deps = %v, want [2 3]", got.Tasks[4].Deps)
	}
	// Byte-level idempotence: re-serializing the loaded trace must
	// reproduce the original stream exactly.
	var buf2 bytes.Buffer
	if _, err := got.WriteTo(&buf2); err != nil {
		t.Fatalf("re-WriteTo: %v", err)
	}
	if !bytes.Equal(wrote, buf2.Bytes()) {
		t.Error("round-trip is not byte-idempotent")
	}
}

// TestReadV1TraceRejected checks that a trace in the retired BOTR1
// layout (no priority/dep fields) fails on its magic instead of being
// misread as BOTR2.
func TestReadV1TraceRejected(t *testing.T) {
	tr := buildDepTrace(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	v1 := buf.Bytes()
	copy(v1, "BOTR1")
	_, err := ReadTrace(bytes.NewReader(v1))
	if err == nil || !strings.Contains(err.Error(), `"BOTR1"`) {
		t.Fatalf("ReadTrace(BOTR1) = %v, want a bad-magic error naming BOTR1", err)
	}
}

// TestValidateRejectsBadDeps checks the dep invariants.
func TestValidateRejectsBadDeps(t *testing.T) {
	tr := buildDepTrace(t)
	tr.Tasks[2].Deps = []int32{4} // forward edge: pred created later
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted a forward dependence edge")
	}
	tr = buildDepTrace(t)
	tr.Tasks[2].Deps = []int32{99}
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted an out-of-range dependence")
	}
	tr = buildDepTrace(t)
	// Cross-parent edge: rewrite D's dep list to point at a task that
	// is not a sibling (the root's parent differs from D's).
	tr.Tasks[4].Deps = []int32{0}
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted a cross-parent dependence")
	}
}

// TestCriticalPathFoldsDiamondDeps is the dep-folding regression
// test: on the diamond A → {B, C} → D the critical path must thread
// the dependence edges (A's completion gates B and C, whose
// completions gate D), not just the spawn tree.
func TestCriticalPathFoldsDiamondDeps(t *testing.T) {
	tr := buildDepTrace(t)
	// Absolute schedule on infinitely many threads: root works 4,
	// spawning A/B/C/D at t=4. A runs 4→14; B and C wait for A and
	// run 14→19; D waits for both and runs 19→26.
	if got := tr.CriticalPath(); got != 26 {
		t.Fatalf("diamond critical path = %d, want 26 (4 +10 +5 +7 through the dep chain)", got)
	}
	// Sanity: without deps the same spawn tree has span 14 (root's 4
	// + the longest child, A's 10).
	noDeps := *tr
	noDeps.Tasks = append([]Task(nil), tr.Tasks...)
	for i := range noDeps.Tasks {
		noDeps.Tasks[i].Deps = nil
	}
	if got := noDeps.CriticalPath(); got != 14 {
		t.Fatalf("dep-stripped diamond critical path = %d, want 14", got)
	}
	// The analysis layer sees the folded span too.
	a := Analyze(tr)
	if a.Span != 26 {
		t.Fatalf("Analyze span = %d, want 26", a.Span)
	}
	if want := float64(4+10+5+5+7) / 26; a.Parallelism < want-0.01 || a.Parallelism > want+0.01 {
		t.Fatalf("Analyze parallelism = %v, want %v", a.Parallelism, want)
	}
}

// TestCriticalPathDepChain pins the fully serial dependence chain:
// back-to-back spawned siblings linked T1 → T2 → ... → T5 must
// serialize end to end even though no taskwait orders them.
func TestCriticalPathDepChain(t *testing.T) {
	r := NewRecorder()
	root := r.Root()
	var prev *Node
	for i := 0; i < 5; i++ {
		n := r.Spawn(root, false, false, 0)
		n.AddWork(3)
		if prev != nil {
			n.DependsOn(prev)
		}
		prev = n
	}
	tr := r.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.CriticalPath(); got != 15 {
		t.Fatalf("dep-chain critical path = %d, want 15", got)
	}
	if a := Analyze(tr); a.Parallelism > 1.01 {
		t.Fatalf("dep-chain parallelism = %v, want ≈ 1", a.Parallelism)
	}
}
