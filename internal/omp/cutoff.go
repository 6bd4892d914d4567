package omp

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// CutoffPolicy is a runtime task-creation cut-off: when Defer returns
// false, a would-be deferred task is executed immediately on the
// encountering thread instead of being queued (it is still a task —
// the undeferred path — unlike an application-level manual cut-off,
// which bypasses the runtime entirely).
//
// The BOTS paper groups cut-offs into application-level (depth-based,
// implemented in the benchmarks themselves) and runtime-level
// (task-count-based, like the Intel compiler's). The policies here
// implement the runtime-level group plus the adaptive scheme the
// paper cites for its §IV-D discussion.
type CutoffPolicy interface {
	// Defer reports whether a new task encountered by worker w at
	// tree depth should be deferred (queued) rather than undeferred.
	Defer(tm *Team, w *worker, depth int32) bool
	// Name identifies the policy in reports. It round-trips through
	// NewCutoff: for every policy value, NewCutoff(p.Name()) yields
	// an equivalent policy, so stored lab records can be replayed. A
	// default-parameterized policy renders the bare name;
	// explicit limits render the parameterized form ("maxtasks(128)").
	Name() string
}

// NoCutoff defers every task, putting all the burden on the
// implementation — the paper's "no-cutoff" configuration.
type NoCutoff struct{}

// Defer always reports true.
func (NoCutoff) Defer(*Team, *worker, int32) bool { return true }

// Name implements CutoffPolicy.
func (NoCutoff) Name() string { return "none" }

// MaxTasks defers tasks only while the team has fewer than
// Limit*numThreads live tasks — the task-count cut-off the paper
// attributes to the Intel OpenMP runtime.
type MaxTasks struct {
	// Limit is the per-thread live-task budget. Zero means a default
	// of 64 tasks per thread.
	Limit int64
}

const defaultMaxTasksPerThread = 64

// Defer implements CutoffPolicy.
func (p MaxTasks) Defer(tm *Team, _ *worker, _ int32) bool {
	lim := p.Limit
	if lim <= 0 {
		lim = defaultMaxTasksPerThread
	}
	return tm.live() < lim*int64(len(tm.workers))
}

// Name implements CutoffPolicy.
func (p MaxTasks) Name() string { return paramName("maxtasks", int64(p.Limit)) }

// MaxQueue defers tasks only while the encountering worker's own
// deque holds fewer than Limit ready tasks. It bounds queue growth
// per worker rather than per team.
type MaxQueue struct {
	// Limit is the per-worker ready-queue bound. Zero means 32.
	Limit int64
}

const defaultMaxQueue = 32

// Defer implements CutoffPolicy.
func (p MaxQueue) Defer(_ *Team, w *worker, _ int32) bool {
	lim := p.Limit
	if lim <= 0 {
		lim = defaultMaxQueue
	}
	return w.queued() < lim
}

// Name implements CutoffPolicy.
func (p MaxQueue) Name() string { return paramName("maxqueue", int64(p.Limit)) }

// MaxDepth defers tasks only above a tree depth, mirroring in the
// runtime what the benchmarks' application-level depth cut-offs do in
// code. It lets the harness sweep cut-off values (§IV-D) without
// recompiling the application.
type MaxDepth struct {
	// Limit is the maximum depth at which tasks are still deferred.
	// Zero means a default of 8.
	Limit int32
}

const defaultMaxDepth = 8

// Defer implements CutoffPolicy.
func (p MaxDepth) Defer(_ *Team, _ *worker, depth int32) bool {
	lim := p.Limit
	if lim <= 0 {
		lim = defaultMaxDepth
	}
	return depth <= lim
}

// Name implements CutoffPolicy.
func (p MaxDepth) Name() string { return paramName("maxdepth", int64(p.Limit)) }

// Adaptive defers tasks while any worker in the team is likely to be
// hungry: it defers when the encountering worker's deque is shallow
// and throttles when the local queue already holds plenty of work,
// following the adaptive-cut-off idea of Duran et al. (SC 2008) cited
// in the paper's §IV-D.
type Adaptive struct {
	// LowWater and HighWater bound the local queue depth between
	// which the policy flips. Zeros mean 4 and 64.
	LowWater, HighWater int64
}

// Defer implements CutoffPolicy.
func (p Adaptive) Defer(tm *Team, w *worker, _ int32) bool {
	low, high := p.LowWater, p.HighWater
	if low <= 0 {
		low = 4
	}
	if high <= 0 {
		high = 64
	}
	n := w.queued()
	if n < low {
		return true
	}
	if n >= high {
		return false
	}
	// Mid-band: defer only if some worker looks starved.
	return tm.live() < int64(len(tm.workers))*low*2
}

// Name implements CutoffPolicy. Partially or degenerately
// parameterized values render their *effective* watermarks (the ones
// Defer acts on), so the name always re-resolves through NewCutoff's
// 0 < low < high validation.
func (p Adaptive) Name() string {
	if p.LowWater <= 0 && p.HighWater <= 0 {
		return "adaptive"
	}
	low, high := p.LowWater, p.HighWater
	if low <= 0 {
		low = 4
	}
	if high <= 0 {
		high = 64
	}
	if high <= low {
		return "adaptive" // not constructible via NewCutoff; render the default
	}
	return fmt.Sprintf("adaptive(%d,%d)", low, high)
}

// paramName renders a single-limit policy name: the bare name for the
// default (zero) limit, name(limit) otherwise — the exact form
// NewCutoff parses back.
func paramName(base string, limit int64) string {
	if limit <= 0 { // non-positive limits mean "default" in Defer
		return base
	}
	return fmt.Sprintf("%s(%d)", base, limit)
}

// Cut-off names: the single closed vocabulary every layer (lab
// manifests, CLI flags) resolves runtime cut-off names against, so
// valid names and error messages have one source of truth — the same
// arrangement NewScheduler provides for scheduler names.
//
// Names are either a bare name ("maxtasks", yielding the
// default-parameterized policy) or a parameterized form with integer
// arguments ("maxtasks(128)", "maxdepth(8)", "adaptive(4,64)"), so
// lab manifests can sweep cut-off *limits*, not just policy kinds.

// cutoffCtor builds a policy from the parsed integer arguments of a
// parameterized name (empty for the bare form).
type cutoffCtor func(args []int64) (CutoffPolicy, error)

// cutoffNames is the closed cut-off vocabulary, sorted; cutoffReg has
// one constructor per name and is never written.
var cutoffNames = []string{"adaptive", "maxdepth", "maxqueue", "maxtasks", "none"}

var cutoffReg = map[string]cutoffCtor{
	"none": func(args []int64) (CutoffPolicy, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("omp: cut-off %q takes no parameters", "none")
		}
		return NoCutoff{}, nil
	},
	"maxtasks": oneLimit("maxtasks", func(n int64) CutoffPolicy { return MaxTasks{Limit: n} }),
	"maxqueue": oneLimit("maxqueue", func(n int64) CutoffPolicy { return MaxQueue{Limit: n} }),
	"maxdepth": func(args []int64) (CutoffPolicy, error) {
		p, err := oneLimit("maxdepth", func(n int64) CutoffPolicy { return MaxDepth{Limit: int32(n)} })(args)
		if err == nil && len(args) == 1 && args[0] > math.MaxInt32 {
			return nil, fmt.Errorf("omp: maxdepth limit %d overflows the depth range", args[0])
		}
		return p, err
	},
	"adaptive": func(args []int64) (CutoffPolicy, error) {
		switch len(args) {
		case 0:
			return Adaptive{}, nil
		case 2:
			if args[0] <= 0 || args[1] <= args[0] {
				return nil, fmt.Errorf("omp: adaptive watermarks must satisfy 0 < low < high, got adaptive(%d,%d)", args[0], args[1])
			}
			return Adaptive{LowWater: args[0], HighWater: args[1]}, nil
		}
		return nil, fmt.Errorf("omp: cut-off %q takes zero or two parameters (adaptive(low,high))", "adaptive")
	},
}

// oneLimit adapts a single-limit policy constructor: zero or one
// integer argument.
func oneLimit(base string, mk func(int64) CutoffPolicy) cutoffCtor {
	return func(args []int64) (CutoffPolicy, error) {
		switch len(args) {
		case 0:
			return mk(0), nil
		case 1:
			if args[0] <= 0 {
				return nil, fmt.Errorf("omp: cut-off %s limit must be positive, got %d", base, args[0])
			}
			return mk(args[0]), nil
		}
		return nil, fmt.Errorf("omp: cut-off %q takes at most one parameter (%s(limit))", base, base)
	}
}

// Cutoffs returns the sorted names of every cut-off.
func Cutoffs() []string {
	return append([]string(nil), cutoffNames...)
}

// NewCutoff resolves a cut-off name — bare ("maxtasks") or
// parameterized ("maxtasks(128)", "adaptive(4,64)") — to a policy
// instance; the empty name means "none". It accepts exactly the
// strings CutoffPolicy.Name renders, so names recorded in lab stores
// always resolve back to the policy that produced them.
func NewCutoff(name string) (CutoffPolicy, error) {
	if name == "" {
		name = "none"
	}
	base, args, err := parseParamName("cut-off", name)
	if err != nil {
		return nil, err
	}
	ctor := cutoffReg[base]
	if ctor == nil {
		return nil, fmt.Errorf("omp: unknown runtime cut-off %q (have %s)", base, strings.Join(cutoffNames, "/"))
	}
	return ctor(args)
}

// parseParamName splits "base(a,b,...)" into the base name and its
// integer arguments; a bare name yields no arguments. kind names the
// vocabulary ("cut-off", "scheduler") in error messages — both
// parameterized-name vocabularies share this one grammar.
func parseParamName(kind, name string) (string, []int64, error) {
	open := strings.IndexByte(name, '(')
	if open < 0 {
		return name, nil, nil
	}
	if !strings.HasSuffix(name, ")") || open == 0 {
		return "", nil, fmt.Errorf("omp: malformed %s name %q (want name or name(limit))", kind, name)
	}
	base := name[:open]
	inner := name[open+1 : len(name)-1]
	if inner == "" {
		return "", nil, fmt.Errorf("omp: malformed %s name %q (empty parameter list)", kind, name)
	}
	parts := strings.Split(inner, ",")
	args := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return "", nil, fmt.Errorf("omp: %s %q: parameter %q is not an integer", kind, name, p)
		}
		args = append(args, v)
	}
	return base, args, nil
}
