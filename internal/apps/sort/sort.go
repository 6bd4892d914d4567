// Package sort implements the BOTS Sort benchmark (Cilk's cilksort):
// a random permutation of 32-bit integers is sorted by a parallel
// mergesort whose merge step is itself a parallel divide-and-conquer
// (binary-search split), rather than the conventional serial merge.
// Small subarrays fall back to a sequential quicksort, and arrays
// below a 20-element threshold to insertion sort, exactly as the
// paper describes. Tasks are created at the leaves of the recursion.
package sort

import (
	"fmt"
	"hash/fnv"
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

// seqQuick is the sequential quicksort with median-of-three pivoting
// and insertion sort below the threshold.
func seqQuick(a []int32) {
	for len(a) > insertionThreshold {
		lo, hi := 0, len(a)-1
		mid := lo + (hi-lo)/2
		// Median-of-three.
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Recurse on the smaller side, loop on the larger.
		if j-lo < hi-i {
			seqQuick(a[lo : j+1])
			a = a[i:]
		} else {
			seqQuick(a[i:])
			a = a[lo : j+1]
		}
	}
	insertionSort(a)
}

// seqMerge merges sorted a and b into dest (len(dest) == len(a)+len(b)).
func seqMerge(a, b, dest []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dest[k] = a[i]
			i++
		} else {
			dest[k] = b[j]
			j++
		}
		k++
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

// parMerge merges sorted a and b into dest with the Cilk
// divide-and-conquer scheme: split the larger array at its middle,
// binary-search the split value in the smaller one, and merge the two
// halves as tasks.
func parMerge(c *omp.Context, a, b, dest []int32, untied bool) {
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
	clauses := core.TaskOpts(capturedBytes, untied, omp.TaskOpt{})
	opts := clauses[:]
	c.Task(func(c *omp.Context) {
		parMerge(c, a[:ha], b[:hb], dest[:ha+hb], untied)
	}, opts...)
	c.Task(func(c *omp.Context) {
		parMerge(c, a[ha:], b[hb:], dest[ha+hb:], untied)
	}, opts...)
	c.Taskwait()
}

// parSort sorts a using tmp as scratch, with the cilksort 4-way
// decomposition.
func parSort(c *omp.Context, a, tmp []int32, untied bool) {
	n := len(a)
	if n <= quickThreshold {
		seqQuick(a)
		c.AddWork(workQuick(n))
		c.AddWrites(int64(n), 0) // in-place, task-local segment
		return
	}
	q1, q2, q3 := n/4, n/2, 3*(n/4)
	clauses := core.TaskOpts(capturedBytes, untied, omp.TaskOpt{})
	opts := clauses[:]
	c.Task(func(c *omp.Context) { parSort(c, a[:q1], tmp[:q1], untied) }, opts...)
	c.Task(func(c *omp.Context) { parSort(c, a[q1:q2], tmp[q1:q2], untied) }, opts...)
	c.Task(func(c *omp.Context) { parSort(c, a[q2:q3], tmp[q2:q3], untied) }, opts...)
	c.Task(func(c *omp.Context) { parSort(c, a[q3:], tmp[q3:], untied) }, opts...)
	c.Taskwait()
	c.Task(func(c *omp.Context) { parMerge(c, a[:q1], a[q1:q2], tmp[:q2], untied) }, opts...)
	c.Task(func(c *omp.Context) { parMerge(c, a[q2:q3], a[q3:], tmp[q2:], untied) }, opts...)
	c.Taskwait()
	parMerge(c, tmp[:q2], tmp[q2:], a, untied)
}

// digest hashes the array contents.
func digest(a []int32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range a {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
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
	opts := core.TaskOpts(capturedBytes, variant.Untied, omp.TaskOpt{})
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			c.Task(func(c *omp.Context) { parSort(c, a, tmp, variant.Untied) }, opts[:]...)
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
