// Package knapsack implements the 0/1 knapsack branch-and-bound
// benchmark from the Cilk distribution — part of the task-benchmark
// lineage the BOTS paper builds on (its Intel Task Queues / Cilk
// related work) and a natural extension benchmark for the suite: at
// every node the search either includes or excludes the next item,
// pruning with the fractional (linear-relaxation) bound against the
// best value found so far. Like Floorplan, the pruning makes the
// visited-node count scheduling-dependent, so the benchmark verifies
// the optimal value and reports nodes visited as its metric.
package knapsack

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

const inputSeed = 0x6A95AC50

// Item is one knapsack item.
type Item struct {
	Weight, Value int
}

// itemCount and capacity factor per class.
var classItems = map[core.Class]int{
	core.Test:   20,
	core.Small:  26,
	core.Medium: 30,
	core.Large:  34,
}

// DefaultCutoffDepth bounds task creation in the if/manual versions.
const DefaultCutoffDepth = 8

const capturedBytes = 32 // depth, weight, value, best pointer

// GenItems generates n items with correlated weights/values (the hard
// regime for knapsack) and returns them sorted by value density, as
// the bound requires.
func GenItems(n int, seed uint64) ([]Item, int) {
	r := inputs.NewRNG(seed)
	items := make([]Item, n)
	totalW := 0
	for i := range items {
		w := 10 + r.Intn(90)
		items[i] = Item{Weight: w, Value: w + r.Intn(21) - 10}
		if items[i].Value < 1 {
			items[i].Value = 1
		}
		totalW += w
	}
	sort.Slice(items, func(i, j int) bool {
		return items[i].Value*items[j].Weight > items[j].Value*items[i].Weight
	})
	return items, totalW / 2 // capacity: half the total weight
}

// bound computes the fractional upper bound for a node that has
// already packed (value, weight) and may still use items[idx:].
func bound(items []Item, idx, capacity, weight, value int) float64 {
	b := float64(value)
	room := capacity - weight
	for _, it := range items[idx:] {
		if it.Weight <= room {
			room -= it.Weight
			b += float64(it.Value)
		} else {
			b += float64(it.Value) * float64(room) / float64(it.Weight)
			break
		}
	}
	return b
}

// shared is the cross-task search state.
type shared struct {
	items    []Item
	capacity int
	best     atomic.Int64
}

// explore visits one node; spawn (when non-nil) may take over a
// branch as a task and returns true if it did.
func explore(sh *shared, idx, weight, value int, nodes *int64,
	spawn func(idx, weight, value int) bool) {
	*nodes++
	if int64(value) > sh.best.Load() {
		for {
			cur := sh.best.Load()
			if int64(value) <= cur || sh.best.CompareAndSwap(cur, int64(value)) {
				break
			}
		}
	}
	if idx == len(sh.items) {
		return
	}
	if bound(sh.items, idx, sh.capacity, weight, value) <= float64(sh.best.Load()) {
		return // prune: even the fractional relaxation cannot win
	}
	it := sh.items[idx]
	if weight+it.Weight <= sh.capacity {
		if spawn == nil || !spawn(idx+1, weight+it.Weight, value+it.Value) {
			explore(sh, idx+1, weight+it.Weight, value+it.Value, nodes, spawn)
		}
	}
	if spawn == nil || !spawn(idx+1, weight, value) {
		explore(sh, idx+1, weight, value, nodes, spawn)
	}
}

// Seq solves the instance sequentially; returns best value and nodes.
func Seq(items []Item, capacity int) (best, nodes int64) {
	sh := &shared{items: items, capacity: capacity}
	var n int64
	explore(sh, 0, 0, 0, &n, nil)
	return sh.best.Load(), n
}

// SeqDP solves the instance with dynamic programming — the exact
// oracle used to validate the branch-and-bound.
func SeqDP(items []Item, capacity int) int64 {
	dp := make([]int64, capacity+1)
	for _, it := range items {
		for w := capacity; w >= it.Weight; w-- {
			if v := dp[w-it.Weight] + int64(it.Value); v > dp[w] {
				dp[w] = v
			}
		}
	}
	return dp[capacity]
}

// parExplore is the task-parallel search.
func parExplore(c *omp.Context, sh *shared, idx, weight, value, cutoff int,
	variant core.Variant, nodes *omp.ThreadPrivate[int64]) {
	var local int64
	spawn := func(ni, nw, nv int) bool {
		depth := ni
		var cut omp.TaskOpt
		switch variant.Cutoff {
		case "manual":
			if depth >= cutoff {
				return false
			}
		case "if":
			cut = omp.If(depth < cutoff)
		}
		opts := core.TaskOpts(capturedBytes, variant.Untied, cut)
		c.Task(func(c *omp.Context) { parExplore(c, sh, ni, nw, nv, cutoff, variant, nodes) }, opts[:]...)
		return true
	}
	explore(sh, idx, weight, value, &local, spawn)
	c.AddWork(local * int64(len(sh.items)/4+1))
	c.AddWrites(local, local/8)
	*nodes.Get(c) += local
	c.Taskwait()
}

func digest(best int64) string { return fmt.Sprintf("knapsack-best=%d", best) }

func seqRun(class core.Class) (*core.SeqResult, error) {
	items, capacity := GenItems(classItems[class], inputSeed)
	start := time.Now()
	best, nodes := Seq(items, capacity)
	elapsed := time.Since(start)
	if oracle := SeqDP(items, capacity); best != oracle {
		return nil, fmt.Errorf("knapsack: branch-and-bound found %d, DP oracle says %d", best, oracle)
	}
	return &core.SeqResult{
		Digest:   digest(best),
		Work:     nodes * int64(len(items)/4+1),
		Metric:   float64(nodes),
		Elapsed:  elapsed,
		MemBytes: int64(len(items))*16 + int64(capacity)*8,
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	items, capacity := GenItems(classItems[cfg.Class], inputSeed)
	cutoff := cfg.CutoffDepth
	if cutoff <= 0 {
		cutoff = DefaultCutoffDepth
	}
	sh := &shared{items: items, capacity: capacity}
	nodes := omp.NewThreadPrivate[int64](cfg.Threads)
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			parExplore(c, sh, 0, 0, 0, cutoff, variant, nodes)
		})
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	var total int64
	for i := 0; i < nodes.Len(); i++ {
		total += *nodes.Slot(i)
	}
	return &core.RunResult{
		Digest:  digest(sh.best.Load()),
		Metric:  float64(total),
		Stats:   st,
		Elapsed: elapsed,
	}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "knapsack",
		Origin:         "Cilk",
		Domain:         "Optimization",
		Structure:      "At each node",
		TaskDirectives: 2,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "depth-based",
		Extension:      true,
		Versions:       core.CutoffVersions(),
		BestVersion:    "manual-untied",
		Profile:        core.Profile{MemFraction: 0.05, BandwidthCap: 32},
		Seq:            seqRun,
		Run:            parRun,
		Verify: func(seq *core.SeqResult, par *core.RunResult) error {
			if seq.Digest != par.Digest {
				return fmt.Errorf("knapsack: optimal value mismatch: %s vs %s", par.Digest, seq.Digest)
			}
			if par.Metric <= 0 {
				return fmt.Errorf("knapsack: no nodes visited")
			}
			return nil
		},
	})
}
