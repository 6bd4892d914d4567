package sim

import (
	"math"
	"testing"

	"bots/internal/trace"
)

// bandwidthGolden is Run's Result under digestParams' bandwidth model
// (WorkUnitNS 1.37, MemFraction 0.55, BandwidthCap 8) over the digest
// grid, taken from the event loop that decremented every running
// segment per event. Its float inputs are non-integral, so a change of
// how the loop keeps time may round differently in the last bits: the
// counts must hold exactly, the makespan to a relative 1e-12, and
// IdleNS to 1e-12 of the team's worker-time (threads × makespan),
// since its rounding error grows with the clock, not with its own
// size (a 42 ns idle total in a 259 µs two-worker run).
var bandwidthGolden = []struct {
	trace, sched            string
	threads                 int
	steals, parks, switches int64
	makespanNS, idleNS      float64
}{
	{"random1", "workfirst", 1, 0, 0, 0, 499160.13000000134, 0},
	{"random1", "workfirst", 2, 77, 0, 0, 267205.27999999834, 600.4300000000002},
	{"random1", "workfirst", 3, 174, 22, 0, 196788.65999999817, 12905.85},
	{"random1", "workfirst", 8, 506, 128, 0, 143415.86000000025, 420466.7500000008},
	{"random1", "workfirst", 32, 1057, 298, 0, 96278.26277765038, 2.0875114947760405e+06},
	{"random1", "breadthfirst", 1, 0, 0, 0, 499160.1300000008, 0},
	{"random1", "breadthfirst", 2, 45, 13, 0, 339765.4300000003, 160120.7299999998},
	{"random1", "breadthfirst", 3, 161, 27, 0, 231856.83999999767, 123960.39000000016},
	{"random1", "breadthfirst", 8, 517, 139, 0, 145277.99000000022, 430413.78999999905},
	{"random1", "breadthfirst", 32, 1082, 316, 0, 98477.81092519702, 2.147284501757349e+06},
	{"random1", "centralized", 1, 0, 0, 0, 499160.1300000008, 0},
	{"random1", "centralized", 2, 0, 10, 0, 313278.4799999999, 127396.82999999996},
	{"random1", "centralized", 3, 0, 15, 0, 234535.78999999788, 204447.2399999997},
	{"random1", "centralized", 8, 0, 46, 0, 122041.64000000009, 477172.98999999935},
	{"random1", "centralized", 32, 0, 73, 0, 85857.50390478273, 2.235780916022944e+06},
	{"random1", "locality", 1, 0, 0, 0, 499160.13000000134, 0},
	{"random1", "locality", 2, 95, 0, 0, 259276.08999999802, 42.050000000000225},
	{"random1", "locality", 3, 183, 6, 0, 181137.10999999856, 16801.19999999999},
	{"random1", "locality", 8, 699, 111, 0, 128257.80000000073, 293802.26999999984},
	{"random1", "locality", 32, 1211, 313, 0, 97716.91242207243, 2.0888704126528176e+06},
	{"random1", "workfirst(8)", 1, 0, 0, 0, 499160.13000000134, 0},
	{"random1", "workfirst(8)", 2, 77, 0, 0, 267205.27999999834, 600.4300000000002},
	{"random1", "workfirst(8)", 3, 174, 22, 0, 196788.65999999817, 12905.85},
	{"random1", "workfirst(8)", 8, 506, 128, 0, 143415.86000000025, 420466.7500000008},
	{"random1", "workfirst(8)", 32, 1057, 298, 0, 96278.26277765038, 2.0875114947760405e+06},
	{"random3", "workfirst", 3, 87, 2, 0, 182978.10999999856, 1198.1300000000028},
	{"random3", "workfirst", 8, 288, 23, 0, 97076.89000000048, 138428.92000000042},
	{"random3", "workfirst", 32, 1127, 360, 0, 75249.18015353974, 1.3716866440642516e+06},
	{"random3", "breadthfirst", 3, 174, 43, 0, 206847.22999999856, 33655.490000000005},
	{"random3", "breadthfirst", 8, 372, 100, 0, 117571.43000000027, 264585.2399999994},
	{"random3", "breadthfirst", 32, 1168, 355, 0, 71561.75428488464, 1.2350602996828577e+06},
	{"random3", "centralized", 3, 0, 17, 0, 221244.57999999967, 155147.53999999983},
	{"random3", "centralized", 8, 0, 33, 0, 93670.70000000016, 240779.40000000005},
	{"random3", "centralized", 32, 0, 75, 0, 53291.7552078549, 1.1802689739587426e+06},
	{"random3", "locality", 3, 192, 5, 0, 180573.24999999886, 3433.5499999999997},
	{"random3", "locality", 8, 513, 79, 0, 102094.79000000026, 174522.12000000014},
	{"random3", "locality", 32, 1164, 325, 0, 67104.33261099827, 1.1347737010982158e+06},
	{"random3", "workfirst(8)", 3, 87, 2, 0, 182978.10999999856, 1198.1300000000028},
	{"random3", "workfirst(8)", 8, 288, 23, 0, 97076.89000000048, 138428.92000000042},
	{"random3", "workfirst(8)", 32, 1127, 360, 0, 75249.18015353974, 1.3716866440642516e+06},
	{"depchain", "workfirst", 1, 0, 0, 0, 23724.159999999916, 0},
	{"depchain", "workfirst", 2, 32, 0, 0, 20479.99999999999, 2835.839999999998},
	{"depchain", "workfirst", 3, 32, 0, 0, 20479.99999999999, 23315.839999999993},
	{"depchain", "workfirst", 8, 32, 0, 0, 20479.99999999999, 125715.83999999988},
	{"depchain", "workfirst", 32, 32, 0, 0, 20479.99999999999, 617235.8399999994},
	{"depchain", "breadthfirst", 1, 0, 0, 0, 23724.159999999916, 0},
	{"depchain", "breadthfirst", 2, 32, 0, 0, 20479.99999999999, 2835.839999999998},
	{"depchain", "breadthfirst", 3, 32, 0, 0, 20479.99999999999, 23315.839999999993},
	{"depchain", "breadthfirst", 8, 32, 0, 0, 20479.99999999999, 125715.83999999988},
	{"depchain", "breadthfirst", 32, 32, 0, 0, 20479.99999999999, 617235.8399999994},
	{"depchain", "centralized", 1, 0, 0, 0, 23724.159999999916, 0},
	{"depchain", "centralized", 2, 0, 0, 0, 20480, 17235.839999999997},
	{"depchain", "centralized", 3, 0, 0, 0, 20480, 37715.83999999999},
	{"depchain", "centralized", 8, 0, 0, 0, 20480, 140115.84},
	{"depchain", "centralized", 32, 0, 0, 0, 20480, 631635.8399999993},
	{"depchain", "locality", 1, 0, 0, 0, 23724.159999999916, 0},
	{"depchain", "locality", 2, 32, 0, 0, 20479.99999999999, 2835.839999999998},
	{"depchain", "locality", 3, 32, 0, 0, 20479.99999999999, 23315.839999999993},
	{"depchain", "locality", 8, 32, 0, 0, 20479.99999999999, 125715.83999999988},
	{"depchain", "locality", 32, 32, 0, 0, 20479.99999999999, 617235.8399999994},
	{"depchain", "workfirst(8)", 1, 0, 0, 0, 23724.159999999916, 0},
	{"depchain", "workfirst(8)", 2, 32, 0, 0, 20479.99999999999, 2835.839999999998},
	{"depchain", "workfirst(8)", 3, 32, 0, 0, 20479.99999999999, 23315.839999999993},
	{"depchain", "workfirst(8)", 8, 32, 0, 0, 20479.99999999999, 125715.83999999988},
	{"depchain", "workfirst(8)", 32, 32, 0, 0, 20479.99999999999, 617235.8399999994},
	{"mixed", "workfirst", 1, 0, 0, 0, 1.2096852699999842e+06, 0},
	{"mixed", "workfirst", 2, 8, 4, 0, 606857.239999977, 429.2100000000005},
	{"mixed", "workfirst", 3, 12, 2, 0, 406036.50999998517, 3024.2599999999984},
	{"mixed", "workfirst", 8, 77, 24, 0, 168471.649999998, 103437.93000000031},
	{"mixed", "workfirst", 32, 778, 243, 0, 68636.02737927595, 569340.8300261591},
	{"mixed", "breadthfirst", 1, 0, 0, 0, 1.2096852699999833e+06, 0},
	{"mixed", "breadthfirst", 2, 28, 25, 0, 906158.3299999655, 590031.3899999866},
	{"mixed", "breadthfirst", 3, 33, 5, 0, 418271.0699999837, 30277.939999999988},
	{"mixed", "breadthfirst", 8, 448, 108, 0, 199410.3499999968, 183997.53000000003},
	{"mixed", "breadthfirst", 32, 904, 256, 0, 65685.83573622647, 412090.7989090287},
	{"mixed", "centralized", 1, 0, 0, 0, 1.209685269999983e+06, 0},
	{"mixed", "centralized", 2, 0, 63, 0, 635013.9399999715, 60342.61000000007},
	{"mixed", "centralized", 3, 0, 83, 0, 532972.0299999819, 389230.8199999961},
	{"mixed", "centralized", 8, 0, 130, 0, 187055.10999999614, 286755.6099999999},
	{"mixed", "centralized", 32, 0, 275, 0, 55211.864373084136, 495569.1145727344},
	{"mixed", "locality", 1, 0, 0, 0, 1.2096852699999842e+06, 0},
	{"mixed", "locality", 2, 8, 4, 0, 606857.239999977, 429.2100000000005},
	{"mixed", "locality", 3, 44, 6, 0, 423399.1799999864, 49712.270000000004},
	{"mixed", "locality", 8, 129, 60, 0, 202462.49999999735, 371764.7299999958},
	{"mixed", "locality", 32, 897, 249, 0, 68747.83476954584, 588473.2638722259},
	{"mixed", "workfirst(8)", 1, 0, 0, 0, 1.2096852699999842e+06, 0},
	{"mixed", "workfirst(8)", 2, 8, 4, 0, 606857.239999977, 429.2100000000005},
	{"mixed", "workfirst(8)", 3, 12, 2, 0, 406036.50999998517, 3024.2599999999984},
	{"mixed", "workfirst(8)", 8, 77, 24, 0, 168471.649999998, 103437.93000000031},
	{"mixed", "workfirst(8)", 32, 778, 243, 0, 68636.02737927595, 569340.8300261591},
}

// TestBandwidthGolden holds the bandwidth model's schedules to
// bandwidthGolden: identical steal, park and switch counts, and
// makespan and idle time equal to within rounding.
func TestBandwidthGolden(t *testing.T) {
	const tol = 1e-12
	i := 0
	forEachReplay(replayCorpus(), digestParams()[1], func(name string, tr *trace.Trace, threads int, p Params) {
		if i >= len(bandwidthGolden) {
			t.Fatalf("more replays than the %d golden rows", len(bandwidthGolden))
		}
		g := bandwidthGolden[i]
		i++
		if g.trace != name || g.sched != p.Scheduler || g.threads != threads {
			t.Fatalf("row %d is %s %s x%d, replay is %s %s x%d", i-1, g.trace, g.sched, g.threads, name, p.Scheduler, threads)
		}
		r, err := Run(tr, threads, p)
		if err != nil {
			t.Fatalf("%s %s x%d: %v", name, p.Scheduler, threads, err)
		}
		if r.Steals != g.steals || r.Parks != g.parks || r.Switches != g.switches {
			t.Errorf("%s %s x%d: steals/parks/switches %d/%d/%d, want %d/%d/%d", name, p.Scheduler, threads,
				r.Steals, r.Parks, r.Switches, g.steals, g.parks, g.switches)
		}
		workerNS := g.makespanNS * float64(threads)
		if math.Abs(r.MakespanNS-g.makespanNS) > tol*g.makespanNS || math.Abs(r.IdleNS-g.idleNS) > tol*workerNS {
			t.Errorf("%s %s x%d: makespan %v idle %v, want %v and %v within %g of %v and %v", name, p.Scheduler, threads,
				r.MakespanNS, r.IdleNS, g.makespanNS, g.idleNS, tol, g.makespanNS, workerNS)
		}
	})
	if i != len(bandwidthGolden) {
		t.Fatalf("%d replays for %d golden rows", i, len(bandwidthGolden))
	}
}
