// Package uts implements Unbalanced Tree Search, the benchmark the
// BOTS authors added to the suite after the ICPP 2009 paper (its §V
// future work): counting the nodes of an implicitly defined, highly
// unbalanced tree. Each node's children are determined by a
// deterministic splittable hash of the node's identity (the original
// uses SHA-1; this port uses the suite's splitmix-based generator,
// preserving the property that the tree shape is a pure function of
// the root seed), so the tree can only be discovered by traversal and
// the work distribution is impossible to balance statically — the
// worst case for task schedulers and the best case for work stealing.
//
// The tree model is the binomial variant of UTS: the root has b0
// children; every other node has m children with probability q and 0
// with probability 1−q (q·m < 1 keeps the tree finite, with heavy-
// tailed subtree sizes).
package uts

import (
	"fmt"
	"sync/atomic"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

// params defines one UTS tree.
type params struct {
	b0   int     // root branching factor
	m    int     // non-root branching factor
	q    float64 // branching probability
	gran int     // hash iterations per node (the original's SHA-1 cost)
	seed uint64
}

var classParams = map[core.Class]params{
	core.Test:   {200, 4, 0.200, 150, 19},
	core.Small:  {2000, 4, 0.230, 150, 29},
	core.Medium: {6000, 4, 0.235, 150, 31},
	core.Large:  {12000, 4, 0.2400, 150, 37},
}

// DefaultCutoffDepth bounds task creation in the if/manual versions.
const DefaultCutoffDepth = 6

const capturedBytes = 24 // node hash + depth

// childHash derives child i's identity from its parent's, the UTS
// "split" operation.
func childHash(parent uint64, i int) uint64 {
	x := parent ^ (uint64(i)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// numChildren decides a node's branching from its identity hash.
func numChildren(hash uint64, p params, isRoot bool) int {
	if isRoot {
		return p.b0
	}
	// Uniform in [0,1) from the hash.
	u := float64(hash>>11) / (1 << 53)
	if u < p.q {
		return p.m
	}
	return 0
}

// visitWork performs the per-node computation: gran rounds of the
// mixing function, standing in for the SHA-1 evaluation the original
// UTS performs at every node (which is where its time goes). The
// result is folded into the return value so the loop cannot be
// elided.
func visitWork(hash uint64, gran int) uint64 {
	x := hash
	for i := 0; i < gran; i++ {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// seqCount counts the subtree rooted at the node with the given hash,
// folding the per-node work product into sink.
func seqCount(hash uint64, depth int, p params, sink *uint64) int64 {
	*sink ^= visitWork(hash, p.gran)
	n := numChildren(hash, p, depth == 0)
	total := int64(1)
	for i := 0; i < n; i++ {
		total += seqCount(childHash(hash, i), depth+1, p, sink)
	}
	return total
}

// Seq counts the tree for the given class parameters, returning the
// node count (the verified result).
func Seq(p params) int64 {
	root := inputs.NewRNG(p.seed).Uint64()
	var sink uint64
	n := seqCount(root, 0, p, &sink)
	sinkGuard.Store(sink)
	return n
}

// sinkGuard defeats dead-code elimination of the per-node work: every
// traversal stores its folded work product here once, when it ends.
var sinkGuard atomic.Uint64

// tally is one thread's running totals: the nodes it visited and the
// XOR of their work products. Per-thread so the traversal's hot loop
// writes no shared word.
type tally struct {
	nodes int64
	sink  uint64
}

// par is the task-parallel traversal with per-thread tallies. Work
// is counted in node units (one unit per node), matching Seq's
// accounting; each node's actual cost is gran hash rounds.
func par(c *omp.Context, hash uint64, depth, cutoff int, p params,
	variant core.Variant, tallies *omp.ThreadPrivate[tally]) {
	mine := tallies.Get(c)
	mine.sink ^= visitWork(hash, p.gran)
	mine.nodes++
	c.AddWork(1)
	c.AddWrites(1, 0)
	n := numChildren(hash, p, depth == 0)
	for i := 0; i < n; i++ {
		ch := childHash(hash, i)
		var cut omp.TaskOpt
		switch variant.Cutoff {
		case "manual":
			if depth >= cutoff {
				sub := seqCount(ch, depth+1, p, &mine.sink)
				mine.nodes += sub
				c.AddWork(sub)
				c.AddWrites(sub, 0)
				continue
			}
		case "if":
			cut = omp.If(depth < cutoff)
		}
		opts := core.TaskOpts(capturedBytes, variant.Untied, cut)
		c.Task(func(c *omp.Context) { par(c, ch, depth+1, cutoff, p, variant, tallies) }, opts[:]...)
	}
	c.Taskwait()
}

func digest(nodes int64) string { return fmt.Sprintf("uts-nodes=%d", nodes) }

func seqRun(class core.Class) (*core.SeqResult, error) {
	p := classParams[class]
	start := time.Now()
	nodes := Seq(p)
	elapsed := time.Since(start)
	return &core.SeqResult{
		Digest:   digest(nodes),
		Work:     nodes,
		Metric:   float64(nodes),
		Elapsed:  elapsed,
		MemBytes: 4096, // implicit tree: only the traversal frontier lives in memory
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	p := classParams[cfg.Class]
	cutoff := cfg.CutoffDepth
	if cutoff <= 0 {
		cutoff = DefaultCutoffDepth
	}
	tallies := omp.NewThreadPrivate[tally](cfg.Threads)
	root := inputs.NewRNG(p.seed).Uint64()
	opts := core.TaskOpts(capturedBytes, variant.Untied, omp.TaskOpt{})
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.SingleNowait(func(c *omp.Context) {
			c.Task(func(c *omp.Context) {
				par(c, root, 0, cutoff, p, variant, tallies)
			}, opts[:]...)
		})
		c.Barrier()
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	var total int64
	var sink uint64
	for i := 0; i < tallies.Len(); i++ {
		total += tallies.Slot(i).nodes
		sink ^= tallies.Slot(i).sink
	}
	sinkGuard.Store(sink)
	return &core.RunResult{
		Digest:  digest(total),
		Metric:  float64(total),
		Stats:   st,
		Elapsed: elapsed,
	}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "uts",
		Origin:         "UTS",
		Domain:         "Search",
		Structure:      "At each node",
		TaskDirectives: 1,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "depth-based",
		Extension:      true,
		Versions:       core.CutoffVersions(),
		BestVersion:    "manual-untied",
		Profile:        core.Profile{MemFraction: 0.05, BandwidthCap: 32},
		Seq:            seqRun,
		Run:            parRun,
	})
}
