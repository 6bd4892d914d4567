package lab_test

import (
	"strings"
	"testing"

	_ "bots/internal/apps/all"
	"bots/internal/core"
	"bots/internal/lab"
	"bots/internal/omp"
)

func TestExpandGolden(t *testing.T) {
	spec := lab.SweepSpec{
		Benches:  []string{"fib"},
		Versions: []string{"manual-tied", "if-tied"},
		Classes:  []string{"test"},
		Threads:  []int{1, 2},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic expansion: sorted by (bench, version, class,
	// threads, ...), versions alphabetical within a bench.
	want := []struct {
		version string
		threads int
	}{
		{"if-tied", 1}, {"if-tied", 2},
		{"manual-tied", 1}, {"manual-tied", 2},
	}
	if len(jobs) != len(want) {
		t.Fatalf("expanded %d jobs, want %d: %+v", len(jobs), len(want), jobs)
	}
	for i, w := range want {
		j := jobs[i]
		if j.Bench != "fib" || j.Version != w.version || j.Threads != w.threads || j.Class != "test" {
			t.Errorf("job[%d] = %+v, want fib/%s/test/%d", i, j, w.version, w.threads)
		}
		if j.Simulate != w.threads {
			t.Errorf("job[%d].Simulate = %d, want normalized to %d", i, j.Simulate, w.threads)
		}
	}
	// Same manifest → same keys (content addressing is stable).
	again, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Key() != again[i].Key() {
			t.Fatalf("expansion keys not stable at %d", i)
		}
	}
}

func TestExpandDedupsBestAgainstExplicit(t *testing.T) {
	fib, _ := core.Get("fib")
	spec := lab.SweepSpec{
		Benches:  []string{"fib"},
		Versions: []string{"best", fib.BestVersion},
		Classes:  []string{"test"},
		Threads:  []int{2},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("best + explicit best expanded to %d jobs, want 1 (dedup by key)", len(jobs))
	}
}

func TestExpandAppliesVersionsWhereTheyExist(t *testing.T) {
	// manual-tied exists on fib but not sort; tied exists on sort but
	// not fib. Each applies only where present.
	spec := lab.SweepSpec{
		Benches:  []string{"fib", "sort"},
		Versions: []string{"manual-tied", "tied"},
		Threads:  []int{1},
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, j := range jobs {
		got[j.Bench] = j.Version
	}
	if len(jobs) != 2 || got["fib"] != "manual-tied" || got["sort"] != "tied" {
		t.Fatalf("cross-bench version filtering produced %+v", jobs)
	}
}

func TestExpandRejectsUnknownVersionEverywhere(t *testing.T) {
	spec := lab.SweepSpec{Benches: []string{"fib"}, Versions: []string{"bogus-tied"}, Threads: []int{1}}
	if _, err := spec.Expand(); err == nil || !strings.Contains(err.Error(), "bogus-tied") {
		t.Fatalf("expected unknown-version error, got %v", err)
	}
}

func TestExpandKeywordBenches(t *testing.T) {
	spec := lab.SweepSpec{Benches: []string{"paper"}, Threads: []int{1}}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(core.Paper()) {
		t.Fatalf("paper keyword expanded to %d jobs, want %d", len(jobs), len(core.Paper()))
	}
}

func TestReadSweepSpecRejectsUnknownFields(t *testing.T) {
	_, err := lab.ReadSweepSpec(strings.NewReader(`{"benches":["fib"],"thread":[1]}`))
	if err == nil || !strings.Contains(err.Error(), "thread") {
		t.Fatalf("typoed axis should fail decoding, got %v", err)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	base := lab.JobSpec{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4}
	same := []lab.JobSpec{
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, Simulate: 4},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, Policy: "workfirst"},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, RuntimeCutoff: "none"},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, Overheads: &lab.SimOverrides{}},
	}
	for i, s := range same {
		if s.Key() != base.Key() {
			t.Errorf("spec %d should alias the base key: %+v", i, s)
		}
	}
	diff := []lab.JobSpec{
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 8},
		{Bench: "fib", Version: "manual-tied", Class: "small", Threads: 4},
		{Bench: "fib", Version: "if-tied", Class: "test", Threads: 4},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, CutoffDepth: 3},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, RuntimeCutoff: "maxtasks"},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, Policy: "breadthfirst"},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, Simulate: 16},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, Overheads: &lab.SimOverrides{QueueSerializeNS: 120}},
	}
	seen := map[string]int{base.Key(): -1}
	for i, s := range diff {
		k := s.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("spec %d aliases spec %d: %+v", i, prev, s)
		}
		seen[k] = i
	}
}

// TestPolicyAxisSweep sweeps the full scheduler axis end to end: the
// manifest expands to one cell per scheduler with distinct
// canonical keys, and every cell runs the real pipeline (record +
// verify + simulate) successfully.
func TestPolicyAxisSweep(t *testing.T) {
	spec := lab.SweepSpec{
		Benches:  []string{"fib"},
		Versions: []string{"manual-tied"},
		Classes:  []string{"test"},
		Threads:  []int{2},
		Policies: omp.Schedulers(),
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(omp.Schedulers()) {
		t.Fatalf("policy axis expanded to %d cells, want %d", len(jobs), len(omp.Schedulers()))
	}
	keys := map[string]string{}
	runner := lab.NewDirectRunner()
	for _, j := range jobs {
		if prev, dup := keys[j.Key()]; dup {
			t.Fatalf("policy %q aliases %q: same canonical key", j.Policy, prev)
		}
		keys[j.Key()] = j.Policy
		rec, err := runner.Run(j)
		if err != nil {
			t.Fatalf("policy %q: %v", j.Policy, err)
		}
		if !rec.Verified {
			t.Fatalf("policy %q failed verification: %s", j.Policy, rec.VerifyError)
		}
		if rec.Sim == nil || rec.Sim.Speedup <= 0 {
			t.Fatalf("policy %q: missing simulated replay in record", j.Policy)
		}
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	bad := []lab.JobSpec{
		{Bench: "nope", Version: "tied", Class: "test", Threads: 1},
		{Bench: "fib", Version: "nope-tied", Class: "test", Threads: 1},
		{Bench: "fib", Version: "manual-tied", Class: "gigantic", Threads: 1},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 0},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 4, Simulate: 2},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 1, RuntimeCutoff: "sometimes"},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 1, Policy: "chaotic"},
		{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 1, Policy: "late(3)", RuntimeCutoff: "late(3)"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should not validate: %+v", i, s)
		}
		if err := s.Normalize().Validate(); err == nil {
			t.Errorf("spec %d should not validate once normalized: %+v", i, s)
		}
	}
	// An unknown name normalizes to itself, so Validate sees it as
	// written.
	if n := bad[len(bad)-1].Normalize(); n.Policy != "late(3)" || n.RuntimeCutoff != "late(3)" {
		t.Errorf("unknown names normalized to policy %q, cut-off %q; want both as written", n.Policy, n.RuntimeCutoff)
	}
}
