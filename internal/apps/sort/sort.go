// Package sort implements the BOTS Sort benchmark (Cilk's cilksort):
// a random permutation of 32-bit integers is sorted by a parallel
// mergesort whose merge step is itself a parallel divide-and-conquer
// (binary-search split), rather than the conventional serial merge.
// Small subarrays fall back to a sequential quicksort, and arrays
// below a 20-element threshold to insertion sort, exactly as the
// paper describes. Tasks are created at the leaves of the recursion,
// through omp.TaskFunc cells that carry the tasks' slice headers, so a
// task allocates nothing here. The sequential merge at the leaves of
// the parallel merge and the quicksort's partition are branch-free, so
// their cost does not depend on the order of random keys.
package sort

import (
	"fmt"
	"math/bits"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

// Thresholds of the cilksort decomposition.
const (
	// quickThreshold is the subarray size below which the parallel
	// sort falls back to sequential quicksort.
	quickThreshold = 1024
	// mergeThreshold is the merge size below which the parallel merge
	// falls back to a sequential merge.
	mergeThreshold = 1024
	// insertionThreshold is the size below which quicksort falls back
	// to insertion sort ("below a threshold of 20 elements").
	insertionThreshold = 20
)

const inputSeed = 0xB0757051

var classN = map[core.Class]int{
	core.Test:   1 << 14,
	core.Small:  1 << 18,
	core.Medium: 1 << 21,
	core.Large:  1 << 23,
}

// capturedBytes approximates the environment captured per task: two
// or three slice headers.
const capturedBytes = 48

// insertionSort sorts a in place.
func insertionSort(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// seqQuick is the sequential quicksort: median-of-three pivoting,
// insertion sort below the threshold, and recursion on the smaller
// side while looping on the larger. Its partition is a branch-free
// Lomuto pass; when no key falls below the pivot, the pivot is the
// minimum, and a second pass with the bound raised by one gathers
// every key equal to it. That equal-key guard keeps runs of equal keys
// from costing one pass per key.
func seqQuick(a []int32) {
	for len(a) > insertionThreshold {
		pivotToFront(a)
		p := int64(a[0])
		m := partition(a, p)
		if m == 0 {
			a = a[partition(a, p+1)+1:]
			continue
		}
		a[0], a[m] = a[m], a[0]
		if m < len(a)-1-m {
			seqQuick(a[:m])
			a = a[m+1:]
		} else {
			seqQuick(a[m+1:])
			a = a[:m]
		}
	}
	insertionSort(a)
}

// pivotToFront swaps the median of a's keys at its quartiles into
// a[0]. The samples sit at the quartiles, not the ends: partition
// moves the first key of the upper side to the end of every run of
// upper keys, so after a pass over sorted input the ends of the upper
// side hold its largest key and a median of the ends would pick
// extremes, level after level.
func pivotToFront(a []int32) {
	i, j, k := len(a)/4, len(a)/2, len(a)-1-len(a)/4
	if a[j] < a[i] {
		i, j = j, i
	}
	if a[k] < a[j] {
		j = k
		if a[j] < a[i] {
			j = i
		}
	}
	a[0], a[j] = a[j], a[0]
}

// partition moves the keys of a[1:] below lim to a[1:m+1] and returns
// m. Every step swaps the key it reads with the first key not below
// lim and advances that boundary by the compare's result, so the loop
// has no data-dependent branch (SETcc on amd64) and random keys cost
// no mispredictions.
func partition(a []int32, lim int64) int {
	lt := 1
	for i := 1; i < len(a); i++ {
		v := a[i]
		a[i] = a[lt]
		a[lt] = v
		t := 0
		if int64(v) < lim {
			t = 1
		}
		lt += t
	}
	return lt - 1
}

// seqMerge merges sorted a and b into dest (len(dest) == len(a)+len(b)).
// The loop is branch-free: one compare selects the value written and
// which of i and j advances (CMOV and SETcc on amd64), so random keys
// cost no mispredictions. The k < len(dest) term, always true while
// both inputs last, lets dest[k] go without a bounds check whose
// compare would clobber the flags the selection reuses.
func seqMerge(a, b, dest []int32) {
	i, j, k := 0, 0, 0
	for ; k < len(dest) && i < len(a) && j < len(b); k++ {
		x, y := a[i], b[j]
		t := 0
		if x <= y {
			t = 1
		}
		dest[k] = min(x, y)
		i += t
		j += 1 - t
	}
	k += copy(dest[k:], a[i:])
	copy(dest[k:], b[j:])
}

// binSplit returns the index of the first element of a greater than
// or equal to v (lower bound).
func binSplit(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// workQuick estimates quicksort work in element-operations.
func workQuick(n int) int64 {
	if n <= 1 {
		return 1
	}
	return int64(n) * int64(bits.Len(uint(n)))
}

// sortSpan is a sort task's firstprivate environment: the subarray
// and its scratch.
type sortSpan struct{ a, tmp []int32 }

// mergeSpan is a merge task's: the two sorted inputs and the
// destination.
type mergeSpan struct{ a, b, dest []int32 }

// run is the state one parallel sort shares across its tasks. Every
// task is spawned through the sorts or merges TaskFunc, which copies
// its slice headers into a recycled cell, so a task costs no
// allocation in this package.
type run struct {
	// opts is every spawn's clause list, built once per run.
	opts   []omp.TaskOpt
	sorts  *omp.TaskFunc[sortSpan]
	merges *omp.TaskFunc[mergeSpan]
}

func newRun(threads int, untied bool) *run {
	opts := core.TaskOpts(capturedBytes, untied, omp.TaskOpt{})
	r := &run{opts: opts[:]}
	r.sorts = omp.NewTaskFunc(threads, func(c *omp.Context, s *sortSpan) { r.parSort(c, s.a, s.tmp) })
	r.merges = omp.NewTaskFunc(threads, func(c *omp.Context, m *mergeSpan) { r.parMerge(c, m.a, m.b, m.dest) })
	return r
}

// parMerge merges sorted a and b into dest with the Cilk
// divide-and-conquer scheme: split the larger array at its middle,
// binary-search the split value in the smaller one, and merge the two
// halves as tasks.
func (r *run) parMerge(c *omp.Context, a, b, dest []int32) {
	if len(a) < len(b) {
		a, b = b, a
	}
	if len(a)+len(b) <= mergeThreshold {
		seqMerge(a, b, dest)
		c.AddWork(int64(len(dest)))
		c.AddWrites(0, int64(len(dest))) // merge writes land in the shared destination
		return
	}
	if len(b) == 0 {
		copy(dest, a)
		c.AddWork(int64(len(a)))
		c.AddWrites(0, int64(len(a)))
		return
	}
	ha := len(a) / 2
	hb := binSplit(b, a[ha])
	c.AddWork(int64(bits.Len(uint(len(b))) + 1))
	r.merges.Task(c, mergeSpan{a[:ha], b[:hb], dest[:ha+hb]}, r.opts...)
	r.merges.Task(c, mergeSpan{a[ha:], b[hb:], dest[ha+hb:]}, r.opts...)
	c.Taskwait()
}

// parSort sorts a using tmp as scratch, with the cilksort 4-way
// decomposition.
func (r *run) parSort(c *omp.Context, a, tmp []int32) {
	n := len(a)
	if n <= quickThreshold {
		seqQuick(a)
		c.AddWork(workQuick(n))
		c.AddWrites(int64(n), 0) // in-place, task-local segment
		return
	}
	q1, q2, q3 := n/4, n/2, 3*(n/4)
	r.sorts.Task(c, sortSpan{a[:q1], tmp[:q1]}, r.opts...)
	r.sorts.Task(c, sortSpan{a[q1:q2], tmp[q1:q2]}, r.opts...)
	r.sorts.Task(c, sortSpan{a[q2:q3], tmp[q2:q3]}, r.opts...)
	r.sorts.Task(c, sortSpan{a[q3:], tmp[q3:]}, r.opts...)
	c.Taskwait()
	r.merges.Task(c, mergeSpan{a[:q1], a[q1:q2], tmp[:q2]}, r.opts...)
	r.merges.Task(c, mergeSpan{a[q2:q3], a[q3:], tmp[q2:]}, r.opts...)
	c.Taskwait()
	r.parMerge(c, tmp[:q2], tmp[q2:], a)
}

// digest hashes the array contents.
func digest(a []int32) string {
	d := core.NewDigest()
	d.Int32s(a)
	return d.String()
}

// isSorted reports whether a is non-decreasing.
func isSorted(a []int32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
}

func seqRun(class core.Class) (*core.SeqResult, error) {
	n := classN[class]
	a := inputs.Ints32(n, inputSeed)
	start := time.Now()
	seqQuick(a)
	elapsed := time.Since(start)
	if !isSorted(a) {
		return nil, fmt.Errorf("sort: sequential output not sorted")
	}
	return &core.SeqResult{
		Digest:   digest(a),
		Work:     workQuick(n) + 2*int64(n), // sort + the merge passes the parallel version performs
		Elapsed:  elapsed,
		MemBytes: int64(n) * 8, // array + scratch
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	n := classN[cfg.Class]
	a := inputs.Ints32(n, inputSeed)
	tmp := make([]int32, n)
	r := newRun(cfg.Threads, variant.Untied)
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			r.sorts.Task(c, sortSpan{a, tmp}, r.opts...)
		})
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	if !isSorted(a) {
		return nil, fmt.Errorf("sort: parallel output not sorted (version %s)", cfg.Version)
	}
	return &core.RunResult{Digest: digest(a), Stats: st, Elapsed: elapsed}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "sort",
		Origin:         "Cilk",
		Domain:         "Integer sorting",
		Structure:      "At leafs",
		TaskDirectives: 9,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "none",
		Versions:       core.PlainVersions(),
		BestVersion:    "untied",
		Profile:        core.Profile{MemFraction: 0.55, BandwidthCap: 8},
		Seq:            seqRun,
		Run:            parRun,
	})
}
