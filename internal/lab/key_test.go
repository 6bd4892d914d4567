package lab_test

import (
	"testing"

	"bots/internal/lab"
)

// TestJobKeyGolden pins JobSpec.Key byte for byte. Keys are the
// content addresses of every store and journal already written, so a
// change to how the canonical string is built or how spellings are
// normalized must leave every constant here untouched; a key that
// moves silently re-measures (and orphans) every stored cell.
func TestJobKeyGolden(t *testing.T) {
	base := func(mod func(*lab.JobSpec)) lab.JobSpec {
		j := lab.JobSpec{Bench: "fib", Version: "manual-tied", Class: "test", Threads: 2}
		if mod != nil {
			mod(&j)
		}
		return j
	}
	const def = "a31b8a9576e23230"
	cases := []struct {
		name string
		spec lab.JobSpec
		want string
	}{
		{"default", base(nil), def},
		{"workfirst", base(func(j *lab.JobSpec) { j.Policy = "workfirst" }), def},
		{"workfirst(32)", base(func(j *lab.JobSpec) { j.Policy = "workfirst(32)" }), def},
		{"workfirst(8)", base(func(j *lab.JobSpec) { j.Policy = "workfirst(8)" }), "2039ef6eba1d74c3"},
		{"breadthfirst", base(func(j *lab.JobSpec) { j.Policy = "breadthfirst" }), "25d7bbcdbf527f7d"},
		{"centralized", base(func(j *lab.JobSpec) { j.Policy = "centralized" }), "05207c4eccc98229"},
		{"locality", base(func(j *lab.JobSpec) { j.Policy = "locality" }), "7d62a22c28e47088"},
		{"unknown policy", base(func(j *lab.JobSpec) { j.Policy = "chaotic" }), "e85914aa886042b3"},
		{"cutoff empty", base(func(j *lab.JobSpec) { j.RuntimeCutoff = "" }), def},
		{"cutoff none", base(func(j *lab.JobSpec) { j.RuntimeCutoff = "none" }), def},
		{"maxtasks(128)", base(func(j *lab.JobSpec) { j.RuntimeCutoff = "maxtasks(128)" }), "199c8a46294074e9"},
		{"maxdepth(8)", base(func(j *lab.JobSpec) { j.RuntimeCutoff = "maxdepth(8)" }), "28f2f0eec468c9f7"},
		{"adaptive(4,64)", base(func(j *lab.JobSpec) { j.RuntimeCutoff = "adaptive(4,64)" }), "0f289e96db95fe38"},
		{"unknown cutoff", base(func(j *lab.JobSpec) { j.RuntimeCutoff = "sometimes" }), "6a56cda6b89edfb4"},
		{"overheads zero", base(func(j *lab.JobSpec) { j.Overheads = &lab.SimOverrides{} }), def},
		{"switch 200", base(func(j *lab.JobSpec) { j.Overheads = &lab.SimOverrides{ThreadSwitch: true, SwitchNS: 200} }), "85ebba520d08f6ec"},
		{"switch 1.37", base(func(j *lab.JobSpec) { j.Overheads = &lab.SimOverrides{ThreadSwitch: true, SwitchNS: 1.37} }), "282ccfe105c6a0d8"},
		{"switch 1e21", base(func(j *lab.JobSpec) { j.Overheads = &lab.SimOverrides{ThreadSwitch: true, SwitchNS: 1e21} }), "2df246348b3eeabc"},
		{"switch 1e-7", base(func(j *lab.JobSpec) { j.Overheads = &lab.SimOverrides{ThreadSwitch: true, SwitchNS: 1e-7} }), "f3045fbb675b809e"},
		{"switchns without switch", base(func(j *lab.JobSpec) { j.Overheads = &lab.SimOverrides{SwitchNS: 200, QueueSerializeNS: 40} }), "d37290823369d528"},
		{"qserns 40", base(func(j *lab.JobSpec) { j.Overheads = &lab.SimOverrides{QueueSerializeNS: 40} }), "d37290823369d528"},
		{"procs 1", base(func(j *lab.JobSpec) { j.Procs = 1 }), "223e8eff760b71d5"},
		{"pin", base(func(j *lab.JobSpec) { j.Pin = true }), "c19611a53db9ea25"},
		{"simulate explicit", base(func(j *lab.JobSpec) { j.Simulate = 2 }), def},
		{"simulate 8", base(func(j *lab.JobSpec) { j.Simulate = 8 }), "6f32dd8ca23d79e5"},
		{"everything", lab.JobSpec{
			Bench: "sparselu", Version: "dep-tied", Class: "small", Threads: 4,
			CutoffDepth: 3, RuntimeCutoff: "maxdepth(8)", Policy: "locality(4)",
			Simulate: 32, Procs: 2, Pin: true,
			Overheads: &lab.SimOverrides{ThreadSwitch: true, SwitchNS: 1.37, QueueSerializeNS: 40},
		}, "d7caef965e6f9b70"},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s: Key() = %q, want %q", c.name, got, c.want)
		}
		// A normalized spec is a fixed point: re-keying it (the path
		// every stored Record's Spec takes) lands on the same address.
		if got := c.spec.Normalize().Key(); got != c.want {
			t.Errorf("%s: Normalize().Key() = %q, want %q", c.name, got, c.want)
		}
	}
	if p := base(func(j *lab.JobSpec) { j.Policy = "chaotic" }).Normalize().Policy; p != "chaotic" {
		t.Errorf("unknown policy normalized to %q, want it left as written", p)
	}
	if c := base(func(j *lab.JobSpec) { j.RuntimeCutoff = "sometimes" }).Normalize().RuntimeCutoff; c != "sometimes" {
		t.Errorf("unknown cut-off normalized to %q, want it left as written", c)
	}
}
