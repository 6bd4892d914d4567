package core

import (
	"fmt"
	"strings"

	"bots/internal/omp"
)

// Variant is a parsed version name. The suite's version naming
// follows the paper's figure labels:
//
//	"tied" / "untied"                      — plain task versions
//	"if-tied" / "if-untied"                — if-clause depth cut-off (paper Fig. 1)
//	"manual-tied" / "manual-untied"        — manual depth cut-off (paper Fig. 2)
//	"none-tied" / "none-untied"            — no application cut-off
//	"single-tied" / "for-untied" / ...     — generator scheme (SparseLU)
//
// Two post-paper qualifiers expose the OpenMP 4.x-style extensions of
// the omp runtime (the future work the paper's §V points toward):
//
//	"dep-tied" / "dep-untied"              — dependence-driven generator
//	                                         (In/Out/InOut clauses, no
//	                                         phase barriers)
//	"future-tied" / "future-untied"        — typed-future versions
//	                                         (omp.Spawn/Wait instead of
//	                                         task+taskwait)
type Variant struct {
	// Cutoff is "if", "manual", "none", or "" for benchmarks without
	// an application-level cut-off.
	Cutoff string
	// Generator is "single", "for", "dep", or "" for benchmarks
	// without a generator-scheme choice.
	Generator string
	// Untied reports whether tasks carry the untied clause.
	Untied bool
	// Futures reports whether the version uses typed futures
	// (omp.Spawn / Future.Wait) instead of fire-and-forget tasks.
	Futures bool
}

// ParseVersion parses a version name into its variant parts.
func ParseVersion(name string) (Variant, error) {
	v := Variant{}
	parts := strings.Split(name, "-")
	tiedness := parts[len(parts)-1]
	switch tiedness {
	case "tied":
	case "untied":
		v.Untied = true
	default:
		return v, fmt.Errorf("core: version %q must end in -tied or -untied (or be \"tied\"/\"untied\")", name)
	}
	if len(parts) == 1 {
		return v, nil
	}
	if len(parts) != 2 {
		return v, fmt.Errorf("core: malformed version name %q", name)
	}
	switch parts[0] {
	case "if", "manual", "none":
		v.Cutoff = parts[0]
	case "single", "for", "dep":
		v.Generator = parts[0]
	case "future":
		v.Futures = true
	default:
		return v, fmt.Errorf("core: unknown version qualifier %q in %q", parts[0], name)
	}
	return v, nil
}

// TaskOpts returns the clause list of one task directive of a BOTS
// kernel: the captured-environment size, the version's tiedness, and
// one kernel-specific clause (an if cut-off, a priority; the zero
// TaskOpt for none). It is an array, not a slice, so the list lives
// on the caller's stack and a spawn allocates nothing for it: pass
// opts[:]... to Task.
func TaskOpts(captured int, untied bool, extra omp.TaskOpt) [3]omp.TaskOpt {
	opts := [3]omp.TaskOpt{omp.Captured(captured), extra}
	if untied {
		opts[2] = omp.Untied()
	}
	return opts
}

// CutoffVersions is the version list for benchmarks with a
// depth-based application cut-off (fib, floorplan, health, nqueens,
// strassen).
func CutoffVersions() []string {
	return []string{"if-tied", "if-untied", "manual-tied", "manual-untied", "none-tied", "none-untied"}
}

// PlainVersions is the version list for benchmarks without an
// application cut-off (alignment, fft, sort).
func PlainVersions() []string {
	return []string{"tied", "untied"}
}

// GeneratorVersions is the version list for benchmarks with a
// single/multiple generator choice (sparselu), including the
// dependence-driven generator that replaces phase barriers with
// In/Out/InOut task ordering.
func GeneratorVersions() []string {
	return []string{"single-tied", "single-untied", "for-tied", "for-untied", "dep-tied", "dep-untied"}
}

// FutureVersions appends the typed-future versions to a benchmark's
// version list (strassen).
func FutureVersions(base []string) []string {
	return append(append([]string(nil), base...), "future-tied", "future-untied")
}
