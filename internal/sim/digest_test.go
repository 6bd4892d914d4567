package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"bots/internal/trace"
)

// replayDigests pins, per cost model of digestParams, every Result
// field and the full start/complete event sequence of Run over the
// corpus × disciplines × team sizes grid below. A change to sim.go
// that is meant to be a pure speed-up must leave the integral models
// (default, queue, threadswitch: integral work unit and overheads, so
// every simulated time is an exactly represented integer) unchanged,
// bit for bit. The bandwidth model's work unit (1.37) and stretch are
// non-integral, so a change of how the event loop keeps time may move
// its last bits: it may re-pin that digest if TestBandwidthGolden
// still holds. A change that means to alter simulated schedules
// re-pins them and says why in CHANGES.md.
var replayDigests = [...]uint64{
	0x98e369d1c7da2c5d, // default
	0x247021d72bc76728, // bandwidth
	0x100c764f0f6b9227, // queue
	0x3572958059c33a85, // threadswitch
}

// digestModels names digestParams' cost models, in order, as the
// subtests of TestReplayDigest.
var digestModels = [...]string{"default", "bandwidth", "queue", "threadswitch"}

// corpusTrace is one deterministic synthetic trace of the replay
// corpus shared by TestReplayDigest and BenchmarkRun.
type corpusTrace struct {
	name string
	tr   *trace.Trace
}

// scriptBytes is a deterministic xorshift byte script for randomTrace.
func scriptBytes(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := seed
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x >> 32)
	}
	return b
}

// mixedTree builds a recursive task tree mixing tied and untied,
// deferred and inline children, sibling dependences and taskwaits at
// varying positions — the shapes sort, uts, health and sparselu
// record, in one deterministic trace.
func mixedTree(depth int) *trace.Trace {
	rec := trace.NewRecorder()
	seq := uint64(0)
	var grow func(n *trace.Node, d int)
	grow = func(n *trace.Node, d int) {
		seq++
		h := seq * 0x9e3779b97f4a7c15
		n.AddWork(int64(h>>60) + 1)
		if d == 0 {
			return
		}
		kids := 2 + int(h>>58&1)
		var prev *trace.Node
		for k := 0; k < kids; k++ {
			seq++
			g := seq * 0xbf58476d1ce4e5b9
			untied := g>>63 == 1
			inline := d <= 2 && g>>61&3 == 0
			c := rec.Spawn(n, untied, inline, int(g>>56&15))
			if !inline && prev != nil && g>>59&3 == 0 {
				c.DependsOn(prev)
			}
			grow(c, d-1)
			if !inline {
				prev = c
			}
			if g>>55&7 == 0 {
				n.AddWork(int64(g>>52&7) + 1)
			}
		}
		if h>>50&7 != 0 {
			n.Taskwait()
			n.AddWork(int64(h>>47&3) + 1)
		}
	}
	grow(rec.Root(), 8)
	return rec.Finish()
}

// replayCorpus is the deterministic trace set the digest and the
// benchmark replay: random graphs (one and three implicit tasks), a
// dependence chain, and the mixed tied/untied tree.
func replayCorpus() []corpusTrace {
	return []corpusTrace{
		{"random1", randomTrace(scriptBytes(1500, 0x51ed2701), 1, false)},
		{"random3", randomTrace(scriptBytes(1500, 0xc0ffee), 3, false)},
		{"depchain", depChainTrace(64, 37)},
		{"mixed", mixedTree(8)},
	}
}

// digestParams are the four cost models the digest covers: the
// benchmark's default, a non-integral work unit under a binding
// bandwidth cap, the central-queue lock model, and thread switching.
func digestParams() []Params {
	def := DefaultOverheads()
	def.WorkUnitNS = 1
	bw := DefaultOverheads()
	bw.WorkUnitNS, bw.MemFraction, bw.BandwidthCap = 1.37, 0.55, 8
	q := DefaultOverheads()
	q.WorkUnitNS, q.QueueSerializeNS = 1, 40
	ts := DefaultOverheads()
	ts.WorkUnitNS, ts.ThreadSwitch, ts.SwitchNS = 1, true, 200
	return []Params{def, bw, q, ts}
}

var digestSchedulers = []string{"workfirst", "breadthfirst", "centralized", "locality", "workfirst(8)"}

func hashU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashResult(h hash.Hash64, r Result) {
	hashU64(h, uint64(r.Threads))
	hashU64(h, math.Float64bits(r.MakespanNS))
	hashU64(h, math.Float64bits(r.SerialNS))
	hashU64(h, math.Float64bits(r.Speedup))
	hashU64(h, uint64(r.Steals))
	hashU64(h, uint64(r.Parks))
	hashU64(h, uint64(r.Switches))
	hashU64(h, math.Float64bits(r.IdleNS))
}

// TestReplayDigest is the bit-identity contract of the event loop,
// one subtest per cost model: an FNV-64a over every Result and every
// OnStart/OnComplete event (kind, task, worker, virtual time) of the
// corpus × digestSchedulers × team sizes grid, plus the Timeline
// spans, compared against that model's pinned replayDigests entry.
func TestReplayDigest(t *testing.T) {
	corpus := replayCorpus()
	for _, c := range corpus {
		if err := c.tr.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	for mi, base := range digestParams() {
		t.Run(digestModels[mi], func(t *testing.T) {
			h := fnv.New64a()
			runs := 0
			forEachReplay(corpus, base, func(name string, tr *trace.Trace, threads int, p Params) {
				plain, err := Run(tr, threads, p)
				if err != nil {
					t.Fatalf("%s %s x%d: %v", name, p.Scheduler, threads, err)
				}
				p.OnStart = func(id int32, worker int, at float64) {
					hashU64(h, 1)
					hashU64(h, uint64(id))
					hashU64(h, uint64(worker))
					hashU64(h, math.Float64bits(at))
				}
				p.OnComplete = func(id int32, worker int, at float64) {
					hashU64(h, 2)
					hashU64(h, uint64(id))
					hashU64(h, uint64(worker))
					hashU64(h, math.Float64bits(at))
				}
				res, tl, err := RunWithTimeline(tr, threads, p)
				if err != nil {
					t.Fatalf("%s %s x%d: %v", name, p.Scheduler, threads, err)
				}
				if res != plain {
					t.Fatalf("%s %s x%d: observed run %v differs from plain run %v", name, p.Scheduler, threads, res, plain)
				}
				hashResult(h, res)
				hashU64(h, uint64(len(tl.Spans)))
				for _, s := range tl.Spans {
					hashU64(h, uint64(s.Task))
					hashU64(h, uint64(s.Worker))
					hashU64(h, math.Float64bits(s.StartNS))
					hashU64(h, math.Float64bits(s.EndNS))
				}
				runs++
			})
			if got, want := h.Sum64(), replayDigests[mi]; got != want {
				t.Fatalf("replay digest over %d runs = %#x, want %#x: simulated schedules changed", runs, got, want)
			}
		})
	}
}

// forEachReplay calls f for every run of the digest grid under cost
// model base: corpus × digestSchedulers × {1, 2, 3, 8, 32} threads,
// skipping team sizes below a trace's root count.
func forEachReplay(corpus []corpusTrace, base Params, f func(name string, tr *trace.Trace, threads int, p Params)) {
	for _, c := range corpus {
		for _, sched := range digestSchedulers {
			for _, threads := range []int{1, 2, 3, 8, 32} {
				if threads < c.tr.NumRoots {
					continue
				}
				p := base
				p.Scheduler = sched
				f(c.name, c.tr, threads, p)
			}
		}
	}
}
