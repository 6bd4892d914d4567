// Custominput example: run the Floorplan kernel on your own cell set.
// Without arguments it solves a built-in sample cell set sequentially
// and with the task runtime and checks that both find the same minimal
// area — demonstrating the BOTS-style input-file formats in
// internal/inputs and the public omp API on user-provided data.
//
//	go run ./examples/custominput                 # built-in sample
//	go run ./examples/custominput -cells my.dat   # your cells
//	go run ./examples/custominput -dump out.dat   # write a sample file to edit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"bots/internal/inputs"
	"bots/internal/omp"
)

// rect and node are the floorplan search state for this example: the
// same branch-and-bound structure as internal/apps/floorplan, written
// against the public omp API to show what user code looks like.
type rect struct{ x, y, w, h int }

type node struct {
	placed []rect
	w, h   int
}

func fits(placed []rect, r rect) bool {
	for _, p := range placed {
		if p.x < r.x+r.w && r.x < p.x+p.w && p.y < r.y+r.h && r.y < p.y+p.h {
			return false
		}
	}
	return true
}

func solve(c *omp.Context, cells []inputs.Cell, s node, idx, cutoff int, best *int64) {
	if idx == len(cells) {
		area := int64(s.w) * int64(s.h)
		c.Critical("best", func() {
			if area < *best {
				*best = area
			}
		})
		return
	}
	var cand [][2]int
	if len(s.placed) == 0 {
		cand = [][2]int{{0, 0}}
	} else {
		for _, p := range s.placed {
			cand = append(cand, [2]int{p.x + p.w, p.y}, [2]int{p.x, p.y + p.h})
		}
	}
	for _, alt := range cells[idx].Alts {
		for _, pos := range cand {
			r := rect{pos[0], pos[1], alt[0], alt[1]}
			if !fits(s.placed, r) {
				continue
			}
			nw, nh := s.w, s.h
			if r.x+r.w > nw {
				nw = r.x + r.w
			}
			if r.y+r.h > nh {
				nh = r.y + r.h
			}
			var cur int64
			c.Critical("best", func() { cur = *best })
			if int64(nw)*int64(nh) >= cur {
				continue
			}
			child := node{placed: append(append([]rect{}, s.placed...), r), w: nw, h: nh}
			if idx < cutoff {
				c.Task(func(c *omp.Context) {
					solve(c, cells, child, idx+1, cutoff, best)
				})
			} else {
				solve(c, cells, child, idx+1, cutoff, best)
			}
		}
	}
	c.Taskwait()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the example: it solves the cell set once on a one-thread
// team with no tasks and once with tasks on -threads, and fails if
// the two minimal areas differ.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("custominput", flag.ContinueOnError)
	cellsPath := fs.String("cells", "", "floorplan cell file (AKM-style format)")
	dump := fs.String("dump", "", "write a sample cell file and exit")
	threads := fs.Int("threads", 4, "team size")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cells := inputs.FloorplanCells(8, 5, 2024)
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			return err
		}
		err = inputs.WriteFloorplanCells(f, cells)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s — edit it and rerun with -cells %s\n", *dump, *dump)
		return nil
	}
	if *cellsPath != "" {
		f, err := os.Open(*cellsPath)
		if err != nil {
			return err
		}
		cells, err = inputs.ReadFloorplanCells(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %d cells from %s\n", len(cells), *cellsPath)
	} else {
		fmt.Fprintf(stdout, "using built-in sample (%d cells); -dump writes it to a file\n", len(cells))
	}

	seq, _ := minArea(cells, 1, 0)
	fmt.Fprintf(stdout, "sequential minimal bounding area: %d\n", seq)
	start := time.Now()
	par, st := minArea(cells, *threads, 3)
	fmt.Fprintf(stdout, "parallel minimal bounding area: %d (found in %v)\n", par, time.Since(start))
	fmt.Fprintf(stdout, "runtime stats: %s\n", st)
	if par != seq {
		return fmt.Errorf("parallel area %d differs from the sequential %d", par, seq)
	}
	return nil
}

// minArea solves cells on a team of threads, creating tasks for the
// first cutoff cells (0: plain recursion, no tasks).
func minArea(cells []inputs.Cell, threads, cutoff int) (int64, *omp.Stats) {
	best := int64(1) << 62
	st := omp.Parallel(threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			solve(c, cells, node{}, 0, cutoff, &best)
		})
	})
	return best, st
}
