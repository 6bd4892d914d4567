// Package floorplan implements the BOTS Floorplan benchmark (from the
// Application Kernel Matrix project): computing the optimal floorplan
// distribution of a number of cells — the minimum bounding-box area
// that fits them all — by recursive branch-and-bound search. Tasks
// are generated hierarchically for each branch of the solution space,
// and the algorithm's state (the partial placement) is copied into
// every child task, which is why the paper reports Floorplan's
// captured environment as by far the largest in the suite.
//
// The pruning is driven by the best area found so far, shared across
// all tasks; that makes the number of nodes visited scheduling-
// dependent, so — exactly as §III-B prescribes — the benchmark
// reports the total number of visited nodes as its throughput metric,
// and verification compares the minimum area (which is invariant)
// rather than the node count.
package floorplan

import (
	"fmt"
	"sync/atomic"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

const inputSeed = 0xF100A91A

// cellCount per class; the branch factor is alternatives × candidate
// positions, so the tree grows steeply with the cell count.
var classCells = map[core.Class]int{
	core.Test:   7,
	core.Small:  9,
	core.Medium: 10,
	core.Large:  12,
}

const maxCellDim = 6

// DefaultCutoffDepth is the level below which the if/manual versions
// stop creating tasks.
const DefaultCutoffDepth = 4

// rect is a placed cell.
type rect struct {
	x, y, w, h int16
}

// state is a partial placement; it is the data copied into each child
// task (the benchmark's large captured environment).
type state struct {
	placed []rect
	w, h   int16 // bounding box of the placement
}

func (s *state) clone() *state {
	ns := &state{w: s.w, h: s.h}
	ns.placed = append(make([]rect, 0, len(s.placed)+1), s.placed...)
	return ns
}

func (s *state) capturedBytes() int { return 8*len(s.placed) + 16 }

func overlaps(a, b rect) bool {
	return a.x < b.x+b.w && b.x < a.x+a.w && a.y < b.y+b.h && b.y < a.y+a.h
}

func (s *state) fits(r rect) bool {
	for _, p := range s.placed {
		if overlaps(p, r) {
			return false
		}
	}
	return true
}

// candidates enumerates the corner positions where the next cell may
// be anchored: (0,0) for an empty board, else the top-right and
// bottom-left corners of each placed cell.
func (s *state) candidates(buf [][2]int16) [][2]int16 {
	buf = buf[:0]
	if len(s.placed) == 0 {
		return append(buf, [2]int16{0, 0})
	}
	seen := make(map[[2]int16]bool, 2*len(s.placed))
	for _, p := range s.placed {
		for _, c := range [2][2]int16{{p.x + p.w, p.y}, {p.x, p.y + p.h}} {
			if !seen[c] {
				seen[c] = true
				buf = append(buf, c)
			}
		}
	}
	return buf
}

// shared is the cross-task search state: the best area found so far
// (for pruning) and the per-thread node counters.
type shared struct {
	best  atomic.Int64
	cells []inputs.Cell
}

// explore visits the node placing cell idx onto s, counting visited
// nodes into *nodes; the recursion below spawn-control is handled by
// the caller via the spawn callback (nil = sequential).
func explore(sh *shared, s *state, idx int, nodes *int64,
	spawn func(child *state, idx int) bool) {
	*nodes++
	if idx == len(sh.cells) {
		area := int64(s.w) * int64(s.h)
		// Install the new best if it improves; CAS loop keeps it
		// monotonically decreasing without a lock.
		for {
			cur := sh.best.Load()
			if area >= cur || sh.best.CompareAndSwap(cur, area) {
				break
			}
		}
		return
	}
	cand := s.candidates(nil)
	for _, alt := range sh.cells[idx].Alts {
		for _, pos := range cand {
			r := rect{x: pos[0], y: pos[1], w: int16(alt[0]), h: int16(alt[1])}
			if !s.fits(r) {
				continue
			}
			nw, nh := s.w, s.h
			if r.x+r.w > nw {
				nw = r.x + r.w
			}
			if r.y+r.h > nh {
				nh = r.y + r.h
			}
			if int64(nw)*int64(nh) >= sh.best.Load() {
				continue // bound: cannot beat the best known area
			}
			child := s.clone()
			child.placed = append(child.placed, r)
			child.w, child.h = nw, nh
			if spawn == nil || !spawn(child, idx+1) {
				explore(sh, child, idx+1, nodes, spawn)
			}
		}
	}
}

// Seq solves the placement sequentially, returning the minimal area
// and the number of nodes visited.
func Seq(cells []inputs.Cell) (area, nodes int64) {
	sh := &shared{cells: cells}
	sh.best.Store(1 << 62)
	var n int64
	explore(sh, &state{}, 0, &n, nil)
	return sh.best.Load(), n
}

// parExplore is the task-parallel search: each branch becomes a task
// (subject to the depth cut-off), with per-thread node counters.
func parExplore(c *omp.Context, sh *shared, s *state, idx, cutoff int,
	variant core.Variant, nodes *omp.ThreadPrivate[int64]) {
	var local int64
	spawn := func(child *state, nextIdx int) bool {
		depth := nextIdx // depth in the task tree == cells placed
		var cut omp.TaskOpt
		switch variant.Cutoff {
		case "manual":
			if depth >= cutoff {
				return false // caller recurses sequentially, no task
			}
		case "if":
			cut = omp.If(depth < cutoff)
		}
		opts := core.TaskOpts(child.capturedBytes(), variant.Untied, cut)
		c.Task(func(c *omp.Context) {
			parExplore(c, sh, child, nextIdx, cutoff, variant, nodes)
		}, opts[:]...)
		return true
	}
	explore(sh, s, idx, &local, spawn)
	c.AddWork(local * int64(len(s.placed)+1))
	c.AddWrites(local*2, local/2)
	*nodes.Get(c) += local
	c.Taskwait()
}

func digest(area int64) string { return fmt.Sprintf("minarea=%d", area) }

func seqRun(class core.Class) (*core.SeqResult, error) {
	cells := inputs.FloorplanCells(classCells[class], maxCellDim, inputSeed)
	start := time.Now()
	area, nodes := Seq(cells)
	elapsed := time.Since(start)
	if area >= 1<<62 {
		return nil, fmt.Errorf("floorplan: no placement found")
	}
	return &core.SeqResult{
		Digest:   digest(area),
		Work:     nodes * int64(classCells[class]/2+1),
		Metric:   float64(nodes),
		Elapsed:  elapsed,
		MemBytes: int64(classCells[class]) * 64,
	}, nil
}

func parRun(cfg core.RunConfig) (*core.RunResult, error) {
	variant, err := core.ParseVersion(cfg.Version)
	if err != nil {
		return nil, err
	}
	cells := inputs.FloorplanCells(classCells[cfg.Class], maxCellDim, inputSeed)
	cutoff := cfg.CutoffDepth
	if cutoff <= 0 {
		cutoff = DefaultCutoffDepth
	}
	sh := &shared{cells: cells}
	sh.best.Store(1 << 62)
	nodes := omp.NewThreadPrivate[int64](cfg.Threads)
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			parExplore(c, sh, &state{}, 0, cutoff, variant, nodes)
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
		Name:           "floorplan",
		Origin:         "AKM",
		Domain:         "Optimization",
		Structure:      "At each node",
		TaskDirectives: 1,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "depth-based",
		Versions:       core.CutoffVersions(),
		BestVersion:    "manual-untied",
		Profile:        core.Profile{MemFraction: 0.1, BandwidthCap: 24},
		Seq:            seqRun,
		Run:            parRun,
		Verify: func(seq *core.SeqResult, par *core.RunResult) error {
			// The minimum area is invariant; the node count is not
			// (pruning order differs), which is exactly why the paper
			// uses nodes/second as Floorplan's metric.
			if seq.Digest != par.Digest {
				return fmt.Errorf("floorplan: minimum area mismatch: %s vs %s", par.Digest, seq.Digest)
			}
			if par.Metric <= 0 {
				return fmt.Errorf("floorplan: no nodes visited")
			}
			return nil
		},
	})
}
