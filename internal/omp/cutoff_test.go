package omp

import (
	"strings"
	"testing"
)

// TestCutoffNameRoundTrip pins the registry contract lab stores rely
// on: for every cut-off, the default instance's Name()
// resolves back through NewCutoff, and the resolved policy renders
// the same name — so a cut-off label recorded in a sweep can always
// be replayed. (Defaulted MaxTasks{} used to render "maxtasks(0)",
// which NewCutoff rejected; and "maxdepth" was missing from the
// registry entirely.)
func TestCutoffNameRoundTrip(t *testing.T) {
	for _, name := range Cutoffs() {
		p, err := NewCutoff(name)
		if err != nil {
			t.Fatalf("NewCutoff(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewCutoff(%q).Name() = %q; default instances must render the bare name", name, p.Name())
		}
		rt, err := NewCutoff(p.Name())
		if err != nil {
			t.Errorf("NewCutoff(%q) does not round-trip: %v", p.Name(), err)
		} else if rt.Name() != p.Name() {
			t.Errorf("round-trip of %q changed the name to %q", p.Name(), rt.Name())
		}
	}
}

// TestCutoffParameterizedForms checks the name(limit) vocabulary
// manifests use to sweep cut-off limits.
func TestCutoffParameterizedForms(t *testing.T) {
	cases := []struct {
		name string
		want CutoffPolicy
	}{
		{"maxtasks(128)", MaxTasks{Limit: 128}},
		{"maxqueue(16)", MaxQueue{Limit: 16}},
		{"maxdepth(8)", MaxDepth{Limit: 8}},
		{"adaptive(4,64)", Adaptive{LowWater: 4, HighWater: 64}},
		{"maxtasks", MaxTasks{}},
		{"maxdepth", MaxDepth{}},
		{"adaptive", Adaptive{}},
		{"", NoCutoff{}},
		{"none", NoCutoff{}},
	}
	for _, tc := range cases {
		p, err := NewCutoff(tc.name)
		if err != nil {
			t.Errorf("NewCutoff(%q): %v", tc.name, err)
			continue
		}
		if p != tc.want {
			t.Errorf("NewCutoff(%q) = %#v, want %#v", tc.name, p, tc.want)
		}
		// Every parameterized instance must round-trip too.
		if rt, err := NewCutoff(p.Name()); err != nil {
			t.Errorf("NewCutoff(%q).Name() = %q does not resolve: %v", tc.name, p.Name(), err)
		} else if rt != p {
			t.Errorf("round-trip of %q = %#v, want %#v", p.Name(), rt, p)
		}
	}

	bad := []string{
		"maxtasks(",            // malformed
		"maxtasks()",           // empty parameter list
		"maxtasks(x)",          // non-integer
		"maxtasks(1,2)",        // too many
		"maxtasks(-3)",         // non-positive limit
		"none(3)",              // none takes no parameters
		"adaptive(4)",          // adaptive takes zero or two
		"adaptive(64,4)",       // inverted watermarks
		"adaptive(0,64)",       // non-positive low watermark
		"maxdepth(4294967296)", // overflows int32 depth range
		"(3)",                  // no base name
		"bogus(3)",             // unknown base
		"maxdepth(8",           // unbalanced
	}
	for _, name := range bad {
		if _, err := NewCutoff(name); err == nil {
			t.Errorf("NewCutoff(%q) should fail", name)
		}
	}
}

// TestMaxDepthPolicy checks maxdepth semantics: the default limit
// defers shallow tasks and inlines deep ones, and the configured
// limit is honored by the runtime end to end.
func TestMaxDepthPolicy(t *testing.T) {
	if p := (MaxDepth{}); !p.Defer(nil, nil, 1) || p.Defer(nil, nil, defaultMaxDepth+1) {
		t.Fatalf("MaxDepth{} default limit broken")
	}
	p, err := NewCutoff("maxdepth(2)")
	if err != nil {
		t.Fatal(err)
	}
	var res int64
	st := Parallel(2, func(c *Context) {
		c.Single(func(c *Context) {
			c.Task(func(c *Context) { parFib(c, 10, &res) })
		})
	}, WithCutoff(p))
	if want := fibSeq(10); res != want {
		t.Fatalf("fib(10) under maxdepth(2) = %d, want %d", res, want)
	}
	if st.TasksUndeferred == 0 {
		t.Fatalf("maxdepth(2) inlined no tasks: %+v", st)
	}
	if st.TasksCreated == 0 {
		t.Fatalf("maxdepth(2) deferred no tasks: %+v", st)
	}
}

// TestCutoffUnknownErrorListsMaxdepth ensures the vocabulary error
// mentions the newly registered policy.
func TestCutoffUnknownErrorListsMaxdepth(t *testing.T) {
	_, err := NewCutoff("bogus")
	if err == nil || !strings.Contains(err.Error(), "maxdepth") {
		t.Fatalf("unknown-cutoff error should list maxdepth, got %v", err)
	}
}
