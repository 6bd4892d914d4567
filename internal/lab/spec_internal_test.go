package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

// TestNormalizeConcurrent normalizes every scheduler and cut-off
// spelling from several goroutines at once, so the race detector sees
// omp's name tables read concurrently.
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
	idMemo.mu.Lock()
	clear(idMemo.m)
	idMemo.mu.Unlock()
}

func keyMemoLen() int {
	idMemo.mu.RLock()
	defer idMemo.mu.RUnlock()
	return len(idMemo.m)
}

// memoSpecs are normalized specs that differ only in ways a memo keyed
// by float values or override pointers could alias or miss: nil vs
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

// TestKeyMemoMatchesFmt checks Key against the fmt reference cold, on a
// memo hit and after the memo is cleared, and that the memo stops at
// its cap.
func TestKeyMemoMatchesFmt(t *testing.T) {
	specs := memoSpecs()
	if a, b := specs[0].Key(), specs[1].Key(); a != b {
		t.Errorf("nil and zero overrides keyed %s and %s, want one key", a, b)
	}
	if a, b := specs[2].Key(), specs[3].Key(); a == b {
		t.Errorf("switch_ns 0 and -0 share key %s; their fmt renderings differ", a)
	}
	clearKeyMemo()
	cold := make([]string, len(specs))
	for i, j := range specs {
		want := fmtKey(j)
		if cold[i] = j.Key(); cold[i] != want {
			t.Errorf("%d cold: key %s, want %s", i, cold[i], want)
		}
	}
	for i, j := range specs {
		hit := j.Key()
		if hit != cold[i] {
			t.Errorf("%d memo hit: key %s, want %s", i, hit, cold[i])
		}
		// A hit hands back the string the cold call stored.
		if unsafe.StringData(hit) != unsafe.StringData(cold[i]) {
			t.Errorf("%d: second Key() recomputed instead of hitting the memo", i)
		}
	}
	clearKeyMemo()
	for i, j := range specs {
		if got := j.Key(); got != cold[i] {
			t.Errorf("%d after clear: key %s, want %s", i, got, cold[i])
		}
	}

	for i := 0; i < maxMemoKeys+10; i++ {
		j := specs[0]
		j.Threads = 1000 + i
		j.Key()
		if n := keyMemoLen(); n > maxMemoKeys {
			t.Fatalf("memo holds %d keys, cap %d", n, maxMemoKeys)
		}
	}
	for i, j := range specs {
		if got := j.Key(); got != cold[i] {
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
				if got := specs[k].Key(); got != want[k] {
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

// forgetSpec drops j's memo entry, so its next identify is a miss.
func forgetSpec(j JobSpec) {
	idMemo.mu.Lock()
	delete(idMemo.m, j.id())
	idMemo.mu.Unlock()
}

func memoized(j JobSpec) bool {
	idMemo.mu.RLock()
	defer idMemo.mu.RUnlock()
	_, ok := idMemo.m[j.id()]
	return ok
}

// sameSpec is reflect.DeepEqual with the override floats compared by
// bit pattern, so NaN equals itself and -0 differs from 0.
func sameSpec(a, b JobSpec) bool {
	ao, bo := a.Overheads, b.Overheads
	a.Overheads, b.Overheads = nil, nil
	if !reflect.DeepEqual(a, b) || (ao == nil) != (bo == nil) {
		return false
	}
	return ao == nil || ao.ThreadSwitch == bo.ThreadSwitch &&
		math.Float64bits(ao.SwitchNS) == math.Float64bits(bo.SwitchNS) &&
		math.Float64bits(ao.QueueSerializeNS) == math.Float64bits(bo.QueueSerializeNS)
}

// FuzzJobKey checks the identity memo against a fresh Normalize and the
// fmt reference key for arbitrary names (parameterized spellings and
// unknown names included), integers and overrides (nil, zero, NaN, ±0,
// ±Inf): first against whatever earlier inputs left in the memo, so
// two specs that alias are caught, then on a miss and again on a hit.
// Every spec is memoized after the miss, and every call hands out its
// own overrides.
func FuzzJobKey(f *testing.F) {
	add := func(j JobSpec) {
		var over uint8
		var o SimOverrides
		if j.Overheads != nil {
			over, o = 1, *j.Overheads
		}
		f.Add(j.Bench, j.Version, j.Class, j.Policy, j.RuntimeCutoff, j.Threads, j.CutoffDepth,
			j.Simulate, j.Procs, j.Pin, over, o.ThreadSwitch, o.SwitchNS, o.QueueSerializeNS)
	}
	// TestJobKeyGolden's specs.
	base := JobSpec{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 2}
	for _, p := range []string{"", "workfirst", "workfirst(32)", "workfirst(8)", "breadthfirst", "centralized", "locality", "chaotic"} {
		j := base
		j.Policy = p
		add(j)
	}
	for _, c := range []string{"none", "maxtasks(128)", "maxdepth(8)", "adaptive(4,64)", "sometimes"} {
		j := base
		j.RuntimeCutoff = c
		add(j)
	}
	for _, o := range []*SimOverrides{{}, {ThreadSwitch: true, SwitchNS: 200}, {ThreadSwitch: true, SwitchNS: 1.37},
		{ThreadSwitch: true, SwitchNS: 1e21}, {ThreadSwitch: true, SwitchNS: 1e-7},
		{SwitchNS: 200, QueueSerializeNS: 40}, {QueueSerializeNS: 40}} {
		j := base
		j.Overheads = o
		add(j)
	}
	for _, mod := range []func(*JobSpec){
		func(j *JobSpec) { j.Procs = 1 },
		func(j *JobSpec) { j.Pin = true },
		func(j *JobSpec) { j.Simulate = 2 },
		func(j *JobSpec) { j.Simulate = 8 },
	} {
		j := base
		mod(&j)
		add(j)
	}
	add(JobSpec{Bench: "sparselu", Version: "dep-tied", Class: "small", Threads: 4,
		CutoffDepth: 3, RuntimeCutoff: "maxdepth(8)", Policy: "locality(4)",
		Simulate: 32, Procs: 2, Pin: true,
		Overheads: &SimOverrides{ThreadSwitch: true, SwitchNS: 1.37, QueueSerializeNS: 40}})
	negZero := math.Copysign(0, -1)
	for _, o := range []*SimOverrides{{ThreadSwitch: true, SwitchNS: negZero}, {ThreadSwitch: true, SwitchNS: math.NaN()},
		{ThreadSwitch: true, SwitchNS: math.Inf(1)}, {QueueSerializeNS: math.Inf(-1)}, {QueueSerializeNS: math.NaN()}} {
		j := base
		j.Overheads = o
		add(j)
	}

	f.Fuzz(func(t *testing.T, bench, version, class, policy, cutoff string, threads, depth, simulate, procs int,
		pin bool, over uint8, ts bool, sw, qs float64) {
		j := JobSpec{Bench: bench, Version: version, Class: class, Policy: policy, RuntimeCutoff: cutoff,
			Threads: threads, CutoffDepth: depth, Simulate: simulate, Procs: procs, Pin: pin}
		if over != 0 {
			j.Overheads = &SimOverrides{ThreadSwitch: ts, SwitchNS: sw, QueueSerializeNS: qs}
		}
		want := j.Normalize()
		wantKey := fmtKey(want)
		var last *SimOverrides
		for _, pass := range []string{"memo", "miss", "hit"} {
			if pass == "miss" {
				forgetSpec(j)
			}
			got, key := j.identify()
			if !sameSpec(got, want) {
				t.Fatalf("%s: identify() spec %+v, Normalize() %+v", pass, got, want)
			}
			if key != wantKey {
				t.Fatalf("%s: identify() key %s, fmt reference %s", pass, key, wantKey)
			}
			if o := got.Overheads; o != nil && (o == last || o == j.Overheads) {
				t.Fatalf("%s: identify() shared an overrides pointer", pass)
			}
			last = got.Overheads
			if pass != "memo" && !memoized(j) {
				t.Fatalf("%s: spec not memoized", pass)
			}
		}
	})
}
