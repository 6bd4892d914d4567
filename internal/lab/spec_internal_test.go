package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"
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

// fmtKey is the reference derivation of key: SHA-256 of the fmt
// rendering every stored key was made with.
func fmtKey(j JobSpec) string {
	var ts, pin int
	var sw, qs float64
	if o := j.Overheads; o != nil {
		if o.ThreadSwitch {
			ts = 1
		}
		sw, qs = o.SwitchNS, o.QueueSerializeNS
	}
	if j.Pin {
		pin = 1
	}
	canon := fmt.Sprintf("bots-job-v2|bench=%s|version=%s|class=%s|threads=%d|cutoff=%d|rtcutoff=%s|policy=%s|sim=%d|procs=%d|pin=%d|ts=%d|switchns=%g|qserns=%g",
		j.Bench, j.Version, j.Class, j.Threads, j.CutoffDepth, j.RuntimeCutoff, j.Policy,
		j.Simulate, j.Procs, pin, ts, sw, qs)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:8])
}

func clearKeyMemo() {
	keyMemo.mu.Lock()
	clear(keyMemo.m)
	keyMemo.mu.Unlock()
}

func keyMemoLen() int {
	keyMemo.mu.RLock()
	defer keyMemo.mu.RUnlock()
	return len(keyMemo.m)
}

// memoSpecs are normalized specs whose canonical bytes differ only in
// ways a memo keyed by anything but those bytes could alias: nil vs
// zero overrides, a switch cost of -0 vs 0, NaN (which never equals
// itself as a float), infinities and exponent renderings.
func memoSpecs() []JobSpec {
	base := JobSpec{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 2}
	with := func(o *SimOverrides) JobSpec { j := base; j.Overheads = o; return j }
	negZero := math.Copysign(0, -1)
	raw := []JobSpec{
		base,
		with(&SimOverrides{}),
		with(&SimOverrides{ThreadSwitch: true}),
		with(&SimOverrides{ThreadSwitch: true, SwitchNS: negZero}),
		with(&SimOverrides{ThreadSwitch: true, SwitchNS: math.NaN()}),
		with(&SimOverrides{ThreadSwitch: true, SwitchNS: math.Inf(1)}),
		with(&SimOverrides{ThreadSwitch: true, SwitchNS: 1e21}),
		with(&SimOverrides{QueueSerializeNS: math.NaN()}),
		with(&SimOverrides{QueueSerializeNS: negZero, ThreadSwitch: true}),
		{Bench: "sparselu", Version: "dep-tied", Class: "small", Threads: 4, CutoffDepth: 3,
			RuntimeCutoff: "maxdepth(8)", Policy: "locality(4)", Simulate: 32, Procs: 2, Pin: true,
			Overheads: &SimOverrides{ThreadSwitch: true, SwitchNS: 1.37, QueueSerializeNS: 40}},
	}
	out := make([]JobSpec, len(raw))
	for i, j := range raw {
		out[i] = j.Normalize()
	}
	return out
}

// TestKeyMemoMatchesFmt checks key against the fmt reference cold, on a
// memo hit and after the memo is cleared, and that the memo stops at
// its cap.
func TestKeyMemoMatchesFmt(t *testing.T) {
	specs := memoSpecs()
	if a, b := specs[0].key(), specs[1].key(); a != b {
		t.Errorf("nil and zero overrides keyed %s and %s, want one key", a, b)
	}
	if a, b := specs[2].key(), specs[3].key(); a == b {
		t.Errorf("switch_ns 0 and -0 share key %s; their fmt renderings differ", a)
	}
	clearKeyMemo()
	cold := make([]string, len(specs))
	for i, j := range specs {
		want := fmtKey(j)
		if cold[i] = j.key(); cold[i] != want {
			t.Errorf("%d cold: key %s, want %s", i, cold[i], want)
		}
	}
	for i, j := range specs {
		hit := j.key()
		if hit != cold[i] {
			t.Errorf("%d memo hit: key %s, want %s", i, hit, cold[i])
		}
		// A hit hands back the string the cold call stored.
		if unsafe.StringData(hit) != unsafe.StringData(cold[i]) {
			t.Errorf("%d: second key() recomputed instead of hitting the memo", i)
		}
	}
	clearKeyMemo()
	for i, j := range specs {
		if got := j.key(); got != cold[i] {
			t.Errorf("%d after clear: key %s, want %s", i, got, cold[i])
		}
	}

	for i := 0; i < maxMemoKeys+10; i++ {
		j := specs[0]
		j.Threads = 1000 + i
		j.key()
		if n := keyMemoLen(); n > maxMemoKeys {
			t.Fatalf("memo holds %d keys, cap %d", n, maxMemoKeys)
		}
	}
	for i, j := range specs {
		if got := j.key(); got != cold[i] {
			t.Errorf("%d after the memo filled: key %s, want %s", i, got, cold[i])
		}
	}
}

// TestKeyMemoConcurrent derives keys from several goroutines while the
// memo is filled, read and cleared, so the race detector sees every
// access and each key still matches the fmt reference.
func TestKeyMemoConcurrent(t *testing.T) {
	specs := memoSpecs()
	want := make([]string, len(specs))
	for i, j := range specs {
		want[i] = fmtKey(j)
	}
	stop := make(chan struct{})
	cleared := make(chan struct{})
	go func() {
		defer close(cleared)
		for {
			select {
			case <-stop:
				return
			default:
				clearKeyMemo()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (i + g) % len(specs)
				if got := specs[k].key(); got != want[k] {
					t.Errorf("spec %d: key %s, want %s", k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-cleared
}
