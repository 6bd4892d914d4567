package sim

import (
	"slices"
	"testing"

	"bots/internal/trace"
)

// simEvent is one OnStart (start true) or OnComplete callback.
type simEvent struct {
	start  bool
	task   int32
	worker int
	at     float64
}

// observedRun runs Run with callbacks that record every start and
// completion in call order.
func observedRun(tr *trace.Trace, threads int, p Params) (Result, []simEvent, error) {
	var evs []simEvent
	p.OnStart = func(id int32, worker int, at float64) {
		evs = append(evs, simEvent{true, id, worker, at})
	}
	p.OnComplete = func(id int32, worker int, at float64) {
		evs = append(evs, simEvent{false, id, worker, at})
	}
	res, err := Run(tr, threads, p)
	return res, evs, err
}

// FuzzRun replays random task graphs — randomTrace of the script, with
// or without sibling dependences — on 1–4 roots and up to 32 virtual
// threads, under every digest scheduler and cost model. Run must not
// fail; two runs must agree in Result and in every callback; every
// task starts once and completes once, no earlier than its start plus
// its own work; virtual time never runs backwards; each worker's
// starts and completions nest as a stack (except with ThreadSwitch,
// which moves a suspended task to another worker); MakespanNS is the
// last completion time; and the team's busy time is what the replay
// charged, so no segment ends late or early. The seed corpus (testdata/fuzz/FuzzRun)
// runs in every go test.
func FuzzRun(f *testing.F) {
	models := digestParams()
	f.Fuzz(func(t *testing.T, script []byte, roots, threads, sched, model uint8, deps bool) {
		if len(script) > 512 {
			script = script[:512]
		}
		nroots := 1 + int(roots%4)
		nthreads := nroots + int(threads%(33-uint8(nroots)))
		p := models[int(model)%len(models)]
		p.Scheduler = digestSchedulers[int(sched)%len(digestSchedulers)]
		tr := randomTrace(script, nroots, deps)
		if err := tr.Validate(); err != nil {
			t.Fatalf("randomTrace built an invalid trace: %v", err)
		}

		res, evs, err := observedRun(tr, nthreads, p)
		if err != nil {
			t.Fatalf("%d roots x%d %s: %v", nroots, nthreads, p.Scheduler, err)
		}
		res2, evs2, err := observedRun(tr, nthreads, p)
		if err != nil || res2 != res || !slices.Equal(evs2, evs) {
			t.Fatalf("second run differs: %v %v (%d events), first %v (%d events)", err, res2, len(evs2), res, len(evs))
		}

		startAt := make([]float64, len(tr.Tasks))
		started := make([]bool, len(tr.Tasks))
		completed := make([]bool, len(tr.Tasks))
		stacks := make([][]int32, nthreads)
		last, lastDone := 0.0, 0.0
		for _, e := range evs {
			if e.at < last {
				t.Fatalf("task %d event at %v after an event at %v: time ran backwards", e.task, e.at, last)
			}
			last = e.at
			if e.start {
				if started[e.task] {
					t.Fatalf("task %d started twice", e.task)
				}
				started[e.task], startAt[e.task] = true, e.at
				stacks[e.worker] = append(stacks[e.worker], e.task)
				continue
			}
			if !started[e.task] || completed[e.task] {
				t.Fatalf("task %d completed (started %v, completed before %v)", e.task, started[e.task], completed[e.task])
			}
			completed[e.task], lastDone = true, e.at
			if own := float64(tr.Tasks[e.task].Work) * p.WorkUnitNS; e.at-startAt[e.task] < own*(1-1e-9) {
				t.Fatalf("task %d ran %v from start to completion, less than its own work %v", e.task, e.at-startAt[e.task], own)
			}
			if p.ThreadSwitch {
				continue
			}
			st := stacks[e.worker]
			if len(st) == 0 || st[len(st)-1] != e.task {
				t.Fatalf("worker %d completed task %d with stack %v", e.worker, e.task, st)
			}
			stacks[e.worker] = st[:len(st)-1]
		}
		for id, done := range completed {
			if !done {
				t.Fatalf("task %d never completed", id)
			}
		}
		if res.MakespanNS != lastDone {
			t.Fatalf("MakespanNS %v, last completion at %v", res.MakespanNS, lastDone)
		}

		// Time is conserved: the team's busy time is the work and the
		// overheads the replay charged. A steal charges StealNS on the
		// task it starts, which is every counted steal except the tasks
		// locality's steal-half moves; queue waits and the bandwidth
		// stretch only add time.
		deferred := tr.NumDeferred()
		charged := float64(tr.TotalWork())*p.WorkUnitNS + float64(deferred)*p.SpawnNS +
			float64(tr.NumTasks()-deferred)*p.InlineNS + float64(tr.NumTaskwaits())*p.TaskwaitNS +
			float64(res.Switches)*p.SwitchNS
		lo, hi := charged, charged+float64(res.Steals)*p.StealNS
		if p.Scheduler != "locality" {
			lo = hi
		}
		busy := float64(nthreads)*res.MakespanNS - res.IdleNS
		tol := 1e-9 * float64(nthreads) * (res.MakespanNS + 1)
		exact := p.QueueSerializeNS == 0 && p.BandwidthCap == 0
		if busy < lo-tol || exact && busy > hi+tol {
			t.Fatalf("busy time %v (x%d, makespan %v, idle %v), charged %v to %v", busy, nthreads, res.MakespanNS, res.IdleNS, lo, hi)
		}
	})
}
