package sparselu

import (
	"bytes"
	"math"
	"testing"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/sim"
	"bots/internal/trace"
)

// toDense expands the block matrix to a dense n×n matrix (nil blocks
// are zero).
func toDense(m *Matrix) []float64 {
	n := m.NB * m.BS
	out := make([]float64, n*n)
	for bi := 0; bi < m.NB; bi++ {
		for bj := 0; bj < m.NB; bj++ {
			b := m.at(bi, bj)
			if b == nil {
				continue
			}
			for i := 0; i < m.BS; i++ {
				for j := 0; j < m.BS; j++ {
					out[(bi*m.BS+i)*n+(bj*m.BS+j)] = b[i*m.BS+j]
				}
			}
		}
	}
	return out
}

// TestLUReconstruction checks that the factorization satisfies
// L·U = A on the dense expansion: the definitive correctness check
// for lu0/fwd/bdiv/bmod working together.
func TestLUReconstruction(t *testing.T) {
	m := NewMatrix(4, 8)
	orig := toDense(m)
	Seq(m)
	fact := toDense(m)
	n := m.NB * m.BS
	// Extract L (unit lower) and U (upper) and multiply.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				var l float64
				if k == i {
					l = 1
				} else {
					l = fact[i*n+k]
				}
				if k <= j {
					sum += l * fact[k*n+j]
				}
			}
			// A position can be nonzero in L·U only where the
			// factorization placed values; compare against original.
			if d := math.Abs(sum - orig[i*n+j]); d > 1e-6 {
				t.Fatalf("L·U differs from A at (%d,%d): %v vs %v (Δ=%v)",
					i, j, sum, orig[i*n+j], d)
			}
		}
	}
}

func TestFillInHappens(t *testing.T) {
	m := NewMatrix(8, 4)
	var before int
	for _, b := range m.Blocks {
		if b != nil {
			before++
		}
	}
	Seq(m)
	var after int
	for _, b := range m.Blocks {
		if b != nil {
			after++
		}
	}
	if after <= before {
		t.Fatalf("expected fill-in: %d blocks before, %d after", before, after)
	}
	if before == len(m.Blocks) {
		t.Fatal("input matrix should be sparse (have nil blocks)")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewMatrix(4, 4)
	c := m.Clone()
	m.Blocks[0][0] = 12345
	if c.Blocks[0][0] == 12345 {
		t.Fatal("Clone must deep-copy block data")
	}
}

func TestAllGeneratorVersionsVerify(t *testing.T) {
	b, err := core.Get("sparselu")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range b.Versions {
		for _, threads := range []int{1, 4} {
			res, err := b.Run(core.RunConfig{Class: core.Test, Version: version, Threads: threads})
			if err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if err := b.Check(seq, res); err != nil {
				t.Fatalf("%s/%d: %v", version, threads, err)
			}
			if res.Stats.TotalTasks() == 0 {
				t.Fatalf("%s/%d: no tasks created", version, threads)
			}
		}
	}
}

func TestWorkParityAcrossGenerators(t *testing.T) {
	b, _ := core.Get("sparselu")
	seq, err := b.Seq(core.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"single-tied", "for-untied"} {
		res, err := b.Run(core.RunConfig{Class: core.Test, Version: v, Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.WorkUnits != seq.Work {
			t.Fatalf("%s: work %d != sequential %d", v, res.Stats.WorkUnits, seq.Work)
		}
	}
}

// TestDepVersionVerifiesAcrossClasses checks the dependence-driven
// factorization against the sequential digest on the test, small and
// medium classes (the acceptance gate for the dep generator).
func TestDepVersionVerifiesAcrossClasses(t *testing.T) {
	b, err := core.Get("sparselu")
	if err != nil {
		t.Fatal(err)
	}
	classes := []core.Class{core.Test, core.Small}
	if !testing.Short() {
		classes = append(classes, core.Medium)
	}
	for _, class := range classes {
		seq, err := b.Seq(class)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Run(core.RunConfig{Class: class, Version: "dep-tied", Threads: 4})
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if err := b.Check(seq, res); err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if res.Stats.WorkUnits != seq.Work {
			t.Fatalf("%s: work %d != sequential %d", class, res.Stats.WorkUnits, seq.Work)
		}
	}
}

// TestDepVersionFewerBarriers: the point of the dependence API — the
// dep generator must synchronize with strictly fewer barriers than
// the paper's best barrier-driven scheme (for-tied), and it must
// actually exercise the dependence machinery.
func TestDepVersionFewerBarriers(t *testing.T) {
	b, _ := core.Get("sparselu")
	dep, err := b.Run(core.RunConfig{Class: core.Test, Version: "dep-tied", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	forv, err := b.Run(core.RunConfig{Class: core.Test, Version: "for-tied", Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Stats.Barriers >= forv.Stats.Barriers {
		t.Fatalf("dep-tied barriers = %d, want strictly fewer than for-tied's %d",
			dep.Stats.Barriers, forv.Stats.Barriers)
	}
	if dep.Stats.DepEdges == 0 || dep.Stats.TasksDepDeferred == 0 {
		t.Fatalf("dep-tied resolved %d edges, deferred %d tasks — dependence machinery unused",
			dep.Stats.DepEdges, dep.Stats.TasksDepDeferred)
	}
	if dep.Stats.Taskwaits != 0 {
		t.Fatalf("dep-tied used %d taskwaits; the dep graph should need none", dep.Stats.Taskwaits)
	}
}

// TestDepTraceRoundTripAndReplay is the end-to-end acceptance test:
// record a dep-driven region, check the dependence edges survive the
// binary trace format, and replay the loaded trace in the simulator.
func TestDepTraceRoundTripAndReplay(t *testing.T) {
	b, _ := core.Get("sparselu")
	rec := trace.NewRecorder()
	const threads = 4
	if _, err := b.Run(core.RunConfig{
		Class: core.Test, Version: "dep-tied", Threads: threads, Recorder: rec,
	}); err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish()
	if err := tr.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	edges := 0
	for i := range tr.Tasks {
		edges += len(tr.Tasks[i].Deps)
	}
	if edges == 0 {
		t.Fatal("recorded dep-tied trace has no dependence edges")
	}
	prio := 0
	for i := range tr.Tasks {
		if tr.Tasks[i].Priority != 0 {
			prio++
		}
	}
	if prio == 0 {
		t.Fatal("recorded dep-tied trace has no prioritized tasks")
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	loadedEdges := 0
	for i := range loaded.Tasks {
		loadedEdges += len(loaded.Tasks[i].Deps)
		for _, d := range loaded.Tasks[i].Deps {
			found := false
			for _, od := range tr.Tasks[i].Deps {
				if od == d {
					found = true
				}
			}
			if !found {
				t.Fatalf("task %d: loaded dep %d not in recorded deps %v", i, d, tr.Tasks[i].Deps)
			}
		}
	}
	if loadedEdges != edges {
		t.Fatalf("dependence edges after round-trip: %d, want %d", loadedEdges, edges)
	}

	res, err := sim.Run(loaded, 8, sim.Params{WorkUnitNS: 1})
	if err != nil {
		t.Fatalf("simulating dep trace: %v", err)
	}
	if res.Speedup <= 1 {
		t.Errorf("dep graph simulated speedup on 8 threads = %.2f, want > 1", res.Speedup)
	}
}

func TestImbalanceExists(t *testing.T) {
	// The paper's premise: non-null blocks are unevenly distributed,
	// so per-phase task counts vary. Sanity-check the input pattern.
	m := NewMatrix(16, 4)
	counts := make([]int, 16)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if m.at(i, j) != nil {
				counts[i]++
			}
		}
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == max {
		t.Fatalf("row occupancies are uniform (%d); expected imbalance", min)
	}
}

// plainBmod is the one-row, one-k triple loop of the C original, which
// bmod's register blocking must reproduce bit for bit.
func plainBmod(row, col, inner []float64, bs int) {
	for i := 0; i < bs; i++ {
		in := inner[i*bs : i*bs+bs]
		for k := 0; k < bs; k++ {
			rik := row[i*bs+k]
			if rik == 0 {
				continue
			}
			ck := col[k*bs : k*bs+len(in)]
			for j := range in {
				in[j] -= rik * ck[j]
			}
		}
	}
}

// TestBmodMatchesPlainRecurrence compares every element's bits after
// bmod and plainBmod, at block sizes with and without an odd last row
// and a k tail past the last group of four. Besides dense blocks, it
// places one zero row entry, in only one row of a pair or at the last
// k (in the tail when bs is not a multiple of four), with a -0
// witness: the element of inner in that row and column j0 starts at
// -0, and column j0 of col holds zeros signed so that every other k's
// product is +0, and -1 at the zero entry's k. Skipping that k leaves
// -0; subtracting its product 0·-1 = -0 turns it into +0.
func TestBmodMatchesPlainRecurrence(t *testing.T) {
	for _, bs := range []int{1, 2, 3, 7, 16, 32, 48, 64} {
		cases := []struct {
			name string
			i, k int // the zero row entry, or -1
		}{
			{"dense", -1, -1},
			{"zero in the second row of a pair", min(1, bs-1), 0},
			{"zero at the last k", 0, bs - 1},
		}
		for _, c := range cases {
			row := inputs.Block(bs, 1, 0, 2, inputSeed)
			col := inputs.Block(bs, 0, 1, 2, inputSeed)
			inner := inputs.Block(bs, 1, 1, 2, inputSeed)
			if c.i >= 0 {
				j0 := bs / 2
				row[c.i*bs+c.k] = 0
				for k := 0; k < bs; k++ {
					col[k*bs+j0] = math.Copysign(0, row[c.i*bs+k])
				}
				col[c.k*bs+j0] = -1
				inner[c.i*bs+j0] = math.Copysign(0, -1)
			}
			want := append([]float64(nil), inner...)
			plainBmod(row, col, want, bs)
			bmod(row, col, inner, bs)
			for e := range inner {
				if math.Float64bits(inner[e]) != math.Float64bits(want[e]) {
					t.Errorf("bs=%d %s: inner[%d][%d] = %v, want %v", bs, c.name, e/bs, e%bs, inner[e], want[e])
					break
				}
			}
		}
	}
}
