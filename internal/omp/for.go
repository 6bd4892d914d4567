package omp

import "sync/atomic"

// Schedule selects how a For worksharing loop distributes iterations.
type Schedule uint8

const (
	// Static splits the iteration space into equal contiguous chunks
	// assigned round-robin by thread number, with no runtime
	// coordination.
	Static Schedule = iota
	// Dynamic hands out chunks first-come first-served from a shared
	// counter.
	Dynamic
	// Guided hands out exponentially shrinking chunks (remaining/2n,
	// floored at the chunk size).
	Guided
)

func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return "unknown"
}

// ForOpt configures a For worksharing construct.
type ForOpt func(*forConfig)

type forConfig struct {
	sched Schedule
	chunk int
}

// WithSchedule selects the loop schedule and chunk size. A chunk of
// zero means: range/numThreads for Static, 1 for Dynamic and Guided.
func WithSchedule(s Schedule, chunk int) ForOpt {
	return func(c *forConfig) { c.sched = s; c.chunk = chunk }
}

// loopState is the shared per-construct-instance state for Dynamic
// and Guided schedules.
type loopState struct {
	next atomic.Int64
}

func (tm *Team) loopStateFor(idx int64, lo int) *loopState {
	tm.wsMu.Lock()
	st, ok := tm.wsLoops[idx]
	if !ok {
		st = &loopState{}
		st.next.Store(int64(lo))
		tm.wsLoops[idx] = st
	}
	tm.wsMu.Unlock()
	return st
}

// For executes body(c, i) for every i in [lo, hi), distributing
// iterations across the team according to the configured schedule,
// with an implicit task-draining barrier at the end. Every thread of
// the team must encounter the construct (it is a worksharing
// construct, not a parallel loop builder), and it must be called from
// the region body, not from inside an explicit task.
//
// Tasks may be created inside the loop body; BOTS Alignment relies on
// exactly that pattern (tasks nested in an omp for), as does the
// multiple-generator version of SparseLU.
func (c *Context) For(lo, hi int, body func(*Context, int), opts ...ForOpt) {
	cfg := forConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	idx := c.w.loopIdx
	c.w.loopIdx++
	n := c.NumThreads()
	total := hi - lo

	switch {
	case total <= 0:
		// Empty range: still synchronize below.
	case cfg.sched == Static:
		chunk := cfg.chunk
		if chunk <= 0 {
			chunk = (total + n - 1) / n
		}
		for base := lo + c.w.id*chunk; base < hi; base += n * chunk {
			end := base + chunk
			if end > hi {
				end = hi
			}
			for i := base; i < end; i++ {
				body(c, i)
			}
		}
	case cfg.sched == Dynamic:
		chunk := cfg.chunk
		if chunk <= 0 {
			chunk = 1
		}
		st := c.w.team.loopStateFor(idx, lo)
		for {
			base := int(st.next.Add(int64(chunk))) - chunk
			if base >= hi {
				break
			}
			end := base + chunk
			if end > hi {
				end = hi
			}
			for i := base; i < end; i++ {
				body(c, i)
			}
		}
	case cfg.sched == Guided:
		minChunk := cfg.chunk
		if minChunk <= 0 {
			minChunk = 1
		}
		st := c.w.team.loopStateFor(idx, lo)
		for {
			cur := st.next.Load()
			if int(cur) >= hi {
				break
			}
			remaining := hi - int(cur)
			chunk := remaining / (2 * n)
			if chunk < minChunk {
				chunk = minChunk
			}
			if !st.next.CompareAndSwap(cur, cur+int64(chunk)) {
				continue
			}
			end := int(cur) + chunk
			if end > hi {
				end = hi
			}
			for i := int(cur); i < end; i++ {
				body(c, i)
			}
		}
	}
	c.Barrier()
}
