// Package health implements the BOTS Health benchmark, a simulation
// of the Columbian health care system (from the Olden suite): a
// multilevel hierarchy of villages, each with a list of potential
// patients and one hospital holding a queue per patient state
// (waiting, in assessment, in treatment, waiting for reallocation).
// At each timestep a task is created per village; once the lower
// levels have been simulated, synchronization occurs (taskwait) and
// reallocated patients climb to the parent.
//
// Substitution: the C original keeps each queue as a doubly-linked
// list of heap-allocated patients. Here a queue is a slice of patient
// pointers compacted in place each step, and patients are handed out
// from per-village chunks, so a step allocates only when a queue
// outgrows its backing array or a chunk runs out. Queue order, and
// with it every digest, is the list's.
//
// Indeterminism control follows §III-B exactly: instead of one global
// random seed, every village derives its own deterministic stream, so
// all probabilities inside a village (computed by a single task) are
// identical across executions regardless of scheduling.
package health

import (
	"fmt"
	"time"

	"bots/internal/core"
	"bots/internal/inputs"
	"bots/internal/omp"
)

const inputSeed = 0x4EA17400

// params configures the simulated hierarchy per input class.
type params struct {
	levels    int // depth of the village tree
	branching int // children per village
	steps     int // simulated timesteps
}

var classParams = map[core.Class]params{
	core.Test:   {3, 4, 30},
	core.Small:  {4, 4, 80},
	core.Medium: {6, 4, 100},
	core.Large:  {7, 4, 120},
}

// Probabilities of the simulation (per potential patient per step).
const (
	probSick         = 0.02 // a villager gets sick
	probConvalescent = 0.40 // an assessed patient needs treatment
	probRealloc      = 0.25 // an assessed patient is referred up a level
	assessTime       = 3    // steps in assessment
	treatmentTime    = 7    // steps in treatment
	personnelPerVill = 4    // hospital capacity factor
	populationBase   = 30   // potential patients per leaf village
)

// DefaultCutoffLevel is the village level below which the if/manual
// versions stop creating tasks (leaves are level 0, so level 1 keeps
// tasks for every non-leaf village).
const DefaultCutoffLevel = 1

const capturedBytes = 8 // the village pointer

// Patient is one simulated patient.
type Patient struct {
	id        int64
	timeLeft  int
	hospitals int   // hospitals visited (reallocation count + 1)
	totalWait int64 // steps spent waiting
}

// Hospital holds the per-village patient queues. Each is a slice
// standing in for the C original's doubly-linked list: a step compacts
// it in place and clears the vacated tail, so the backing array is
// reused from step to step and keeps no finished patient alive.
type Hospital struct {
	personnel     int
	freePersonnel int
	waiting       []*Patient
	assess        []*Patient
	inside        []*Patient
	// reallocUp is written only by this village's task and consumed
	// by the parent after the taskwait, so no locking is needed.
	reallocUp []*Patient
}

// Village is one node of the hierarchy.
type Village struct {
	id       int
	level    int  // distance from the leaves (leaves are level 0)
	isRoot   bool // the root has no upper level to refer patients to
	children []*Village
	hospital Hospital
	// population is the number of potential patients generated here.
	population int
	rng        *inputs.RNG
	nextID     int64
	// patients is the unused rest of the chunk new patients come from.
	patients []Patient

	// Aggregate statistics (the verification digest).
	totalPatients  int64
	totalWaitTime  int64
	totalHospitals int64
	totalTreated   int64
}

// Build constructs the deterministic village hierarchy.
func Build(p params) *Village {
	root := inputs.NewRNG(inputSeed)
	var next int
	var build func(level int) *Village
	build = func(level int) *Village {
		v := &Village{
			id:         next,
			level:      level,
			population: populationBase * (level + 1),
			rng:        root.Split(uint64(next)),
		}
		v.hospital.personnel = personnelPerVill * (level + 1)
		v.hospital.freePersonnel = v.hospital.personnel
		next++
		if level > 0 {
			v.children = make([]*Village, p.branching)
			for i := range v.children {
				v.children[i] = build(level - 1)
			}
		}
		return v
	}
	top := build(p.levels - 1)
	top.isRoot = true
	return top
}

// CountVillages returns the number of villages in the tree.
func (v *Village) CountVillages() int {
	n := 1
	for _, c := range v.children {
		n += c.CountVillages()
	}
	return n
}

// simStep simulates one timestep of a single village (its own
// hospital only; children are handled by the caller). It returns the
// work performed in patient-operations.
func (v *Village) simStep() int64 {
	h := &v.hospital
	var work int64

	// Patients inside treatment.
	keep := h.inside[:0]
	for _, p := range h.inside {
		work++
		p.timeLeft--
		if p.timeLeft <= 0 {
			h.freePersonnel++
			v.totalTreated++
			v.totalWaitTime += p.totalWait
			v.totalHospitals += int64(p.hospitals)
		} else {
			keep = append(keep, p)
		}
	}
	h.inside = compacted(h.inside, keep)

	// Patients in assessment.
	keep = h.assess[:0]
	for _, p := range h.assess {
		work++
		p.timeLeft--
		if p.timeLeft > 0 {
			keep = append(keep, p)
			continue
		}
		switch {
		case !v.isRoot && v.rng.Bernoulli(probRealloc):
			// Referred to the upper-level hospital.
			h.freePersonnel++
			p.hospitals++
			h.reallocUp = append(h.reallocUp, p)
		case v.rng.Bernoulli(probConvalescent):
			p.timeLeft = treatmentTime
			h.inside = append(h.inside, p)
		default:
			h.freePersonnel++
			v.totalTreated++
			v.totalWaitTime += p.totalWait
			v.totalHospitals += int64(p.hospitals)
		}
	}
	h.assess = compacted(h.assess, keep)

	// Waiting patients move to assessment while personnel is free.
	keep = h.waiting[:0]
	for _, p := range h.waiting {
		work++
		if h.freePersonnel > 0 {
			h.freePersonnel--
			p.timeLeft = assessTime
			h.assess = append(h.assess, p)
		} else {
			p.totalWait++
			keep = append(keep, p)
		}
	}
	h.waiting = compacted(h.waiting, keep)

	// New patients fall sick.
	for i := 0; i < v.population; i++ {
		work++
		if v.rng.Bernoulli(probSick) {
			v.nextID++
			v.totalPatients++
			p := v.newPatient()
			p.id = int64(v.id)<<32 | v.nextID
			p.hospitals = 1
			h.waiting = append(h.waiting, p)
		}
	}
	return work
}

// compacted returns keep, the survivors written over the front of q,
// after clearing the slots of q it vacated so the backing array does
// not keep finished patients alive.
func compacted(q, keep []*Patient) []*Patient {
	clear(q[len(keep):])
	return keep
}

// patientChunk is how many patients a village allocates at a time.
const patientChunk = 32

// newPatient hands out the next zeroed patient of v's current chunk.
// A chunk stays reachable while any of its patients is queued
// anywhere in the tree.
func (v *Village) newPatient() *Patient {
	if len(v.patients) == 0 {
		v.patients = make([]Patient, patientChunk)
	}
	p := &v.patients[0]
	v.patients = v.patients[1:]
	return p
}

// absorbChildren moves patients reallocated by the children into this
// village's waiting queue. Must run after the children's step.
func (v *Village) absorbChildren() int64 {
	var work int64
	for _, c := range v.children {
		for _, p := range c.hospital.reallocUp {
			work++
			v.hospital.waiting = append(v.hospital.waiting, p)
		}
		clear(c.hospital.reallocUp)
		c.hospital.reallocUp = c.hospital.reallocUp[:0]
	}
	return work
}

// seqSim simulates one timestep of the subtree rooted at v.
func seqSim(v *Village) int64 {
	var work int64
	for _, c := range v.children {
		work += seqSim(c)
	}
	work += v.absorbChildren()
	return work + v.simStep()
}

// parSim is the task-parallel version: one task per child village,
// bounded by the level cut-off.
func parSim(c *omp.Context, v *Village, cutoffLevel int, variant core.Variant) {
	for _, child := range v.children {
		child := child
		var cut omp.TaskOpt
		switch variant.Cutoff {
		case "manual":
			if child.level < cutoffLevel {
				c.AddWork(seqSim(child))
				continue
			}
		case "if":
			cut = omp.If(child.level >= cutoffLevel)
		}
		opts := core.TaskOpts(capturedBytes, variant.Untied, cut)
		c.Task(func(c *omp.Context) { parSim(c, child, cutoffLevel, variant) }, opts[:]...)
	}
	c.Taskwait()
	w := v.absorbChildren()
	w += v.simStep()
	c.AddWork(w)
	c.AddWrites(w/4, w/8) // queue-pointer updates; partially shared structures
}

// stats aggregates the verification statistics over the tree.
type stats struct {
	Patients, Treated, WaitTime, Hospitals int64
	StillWaiting, StillAssess, StillInside int64
}

func collect(v *Village, s *stats) {
	s.Patients += v.totalPatients
	s.Treated += v.totalTreated
	s.WaitTime += v.totalWaitTime
	s.Hospitals += v.totalHospitals
	s.StillWaiting += int64(len(v.hospital.waiting))
	s.StillAssess += int64(len(v.hospital.assess))
	s.StillInside += int64(len(v.hospital.inside))
	for _, c := range v.children {
		collect(c, s)
	}
}

func digest(v *Village) string {
	var s stats
	collect(v, &s)
	return fmt.Sprintf("patients=%d treated=%d wait=%d hospitals=%d open=%d/%d/%d",
		s.Patients, s.Treated, s.WaitTime, s.Hospitals,
		s.StillWaiting, s.StillAssess, s.StillInside)
}

func seqRun(class core.Class) (*core.SeqResult, error) {
	p := classParams[class]
	v := Build(p)
	start := time.Now()
	var work int64
	for t := 0; t < p.steps; t++ {
		work += seqSim(v)
	}
	elapsed := time.Since(start)
	return &core.SeqResult{
		Digest:   digest(v),
		Work:     work,
		Elapsed:  elapsed,
		MemBytes: int64(v.CountVillages()) * 512,
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
		cutoff = DefaultCutoffLevel
	}
	v := Build(p)
	start := time.Now()
	st := omp.Parallel(cfg.Threads, func(c *omp.Context) {
		c.Single(func(c *omp.Context) {
			for t := 0; t < p.steps; t++ {
				parSim(c, v, cutoff, variant)
			}
		})
	}, cfg.TeamOpts()...)
	elapsed := time.Since(start)
	return &core.RunResult{Digest: digest(v), Stats: st, Elapsed: elapsed}, nil
}

func init() {
	core.Register(&core.Benchmark{
		Name:           "health",
		Origin:         "Olden",
		Domain:         "Simulation",
		Structure:      "At each node",
		TaskDirectives: 1,
		TasksInside:    "single",
		NestedTasks:    true,
		AppCutoff:      "depth-based",
		Versions:       core.CutoffVersions(),
		BestVersion:    "manual-tied",
		Profile:        core.Profile{MemFraction: 0.7, BandwidthCap: 6},
		Seq:            seqRun,
		Run:            parRun,
	})
}
