package lab

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestRegistryNamesMemoizesOnlySuccess checks the soundness rules of the
// spelling memo Normalize resolves through: an unresolvable name is
// left as written and not remembered, so a later registration is seen;
// a resolved name is remembered; the memo stops growing at its cap and
// keeps answering correctly past it.
func TestRegistryNamesMemoizesOnlySuccess(t *testing.T) {
	registered := false
	calls := 0
	r := registryNames{resolve: func(name string) (string, error) {
		calls++
		if !registered {
			return "", errors.New("unknown")
		}
		return "canon(" + name + ")", nil
	}}
	if got := r.canonical("late"); got != "late" {
		t.Fatalf("unresolvable name became %q, want it left as written", got)
	}
	registered = true
	if got := r.canonical("late"); got != "canon(late)" {
		t.Fatalf("after registration got %q: a failed resolution was memoized", got)
	}
	if got := r.canonical("late"); got != "canon(late)" || calls != 2 {
		t.Fatalf("got %q after %d resolutions, want the memoized name after 2", got, calls)
	}
	for i := 0; i < maxMemoNames+100; i++ {
		name := fmt.Sprint(i)
		if got := r.canonical(name); got != "canon("+name+")" {
			t.Fatalf("canonical(%q) = %q", name, got)
		}
	}
	if n := r.n.Load(); n != maxMemoNames {
		t.Fatalf("memo holds %d names, cap %d", n, maxMemoNames)
	}
}

// TestNormalizeConcurrent normalizes every scheduler and cut-off
// spelling from several goroutines at once, so the race detector sees
// the shared spelling memos filled and read concurrently.
func TestNormalizeConcurrent(t *testing.T) {
	spellings := []struct{ policy, cutoff, wantPolicy, wantCutoff string }{
		{"workfirst(32)", "none", "", ""},
		{"workfirst(8)", "maxdepth(8)", "workfirst(8)", "maxdepth(8)"},
		{"breadthfirst", "adaptive(4, 64)", "breadthfirst", "adaptive(4,64)"},
		{"locality", "maxtasks( 7)", "locality", "maxtasks(7)"},
		{"chaotic", "sometimes", "chaotic", "sometimes"},
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := spellings[i%len(spellings)]
				n := JobSpec{Bench: "fib", Threads: 1, Policy: s.policy, RuntimeCutoff: s.cutoff}.Normalize()
				if n.Policy != s.wantPolicy || n.RuntimeCutoff != s.wantCutoff {
					t.Errorf("%s/%s normalized to %q/%q, want %q/%q",
						s.policy, s.cutoff, n.Policy, n.RuntimeCutoff, s.wantPolicy, s.wantCutoff)
					return
				}
			}
		}()
	}
	wg.Wait()
}
