// Command benchmark is the repository's benchmark: eight workloads
// over the parallel-region, service, sweep-cell and replay paths, each
// verified, each reporting the end-to-end metrics of BENCHMARK.json,
// and in a traced run the per-layer metrics behind them. README.md
// has the catalogue, the method and a baseline.
//
// The driver's contract is one run per process:
//
//	go run -C benchmark . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints a readable report and, as the last line of standard
// output, one JSON object {correct, attempted, failed, metrics}.
// Without --workload every workload runs in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	outDir   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all, in catalogue order)")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: kernel order within a pass, cell shuffle, arrival process")
	flag.Float64Var(&o.seconds, "seconds", RunSeconds, "measurement window of one workload run, seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run (per-layer metrics, trace.json); 0: untraced run (end-to-end metrics)")
	flag.BoolVar(&o.quick, "quick", false, "smoke scale: test-class inputs and tiny lists, numbers mean nothing")
	flag.StringVar(&o.outDir, "out", "out", "directory for scratch files and trace.json")
	list := flag.Bool("list", false, "print the catalogue of workloads and metrics and exit")
	aa := flag.Bool("aa", false, "run every workload twice, interleaved A/B/B/A, and compare each end-to-end metric against its bound")
	flag.Parse()
	if flag.NArg() > 0 || o.trace < 0 || o.trace > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// One process, two procs, every team two threads: the load the
	// benchmark generates competes with the system under test for the
	// same two procs, on every host.
	runtime.GOMAXPROCS(Threads)

	var code int
	switch {
	case *list:
		printCatalogue(os.Stdout)
	case *aa:
		code = runAA(o, os.Stdout)
	default:
		code = run(o, os.Stdout)
	}
	os.Exit(code)
}

// runOne runs one workload once, untraced or traced.
func runOne(def *workloadDef, o options) (*result, *tracer, error) {
	e := newEnv(o.seed, time.Duration(o.seconds*float64(time.Second)), o.quick, o.outDir)
	if o.trace == 1 {
		return runTraced(def, e)
	}
	res, err := runUntraced(def, e)
	return res, nil, err
}

// run is the default command: the selected workloads in turn, a
// report per workload, the driver's JSON object last. It returns the
// exit code: non-zero if anything failed verification or could not
// run.
func run(o options, out io.Writer) int {
	defs := workloads
	if o.workload != "" {
		def := findWorkload(o.workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; -list prints the catalogue\n", o.workload)
			return 2
		}
		defs = []workloadDef{*def}
	}
	var results []*result
	var traces []*tracer
	for i := range defs {
		res, tr, err := runOne(&defs[i], o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printResult(out, &defs[i], res, o)
		results = append(results, res)
		if tr != nil {
			traces = append(traces, tr)
		}
	}
	if len(traces) > 0 {
		path, err := writeTraces(o.outDir, traces)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
			return 1
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}
	return printJSON(out, results)
}

func printResult(out io.Writer, def *workloadDef, res *result, o options) {
	fmt.Fprintf(out, "workload %s  seed=%d window=%gs threads=%d trace=%d\n", def.Name, o.seed, o.seconds, Threads, o.trace)
	fmt.Fprintf(out, "  why:  %s\n  load: %s\n", def.Why, def.Load)
	line := func(name, unit string, v value, note string) {
		fmt.Fprintf(out, "  %-36s %14.6g %-6s n=%-5d %s\n", name, v.Value, unit, v.N, note)
	}
	if o.trace == 0 {
		notes := map[string]string{"setup_s": "median of the run's set-ups", "time_ms": def.Time, "rate_per_s": def.Rate}
		for _, m := range endToEnd {
			line(m.Name, m.Unit, res.Metrics[m.Name], fmt.Sprintf("%s, bound %.2f: %s", m.Better, m.Bound, notes[m.Name]))
		}
	} else {
		for _, m := range perLayer {
			// Of the metrics every workload may report (self_ms.*), only
			// the layers the traced pass entered have a value.
			if v := res.Metrics[m.Name]; m.on(def.Name) && (m.On != nil || v.Value != 0) {
				line(m.Name, m.Unit, v, "moves "+m.Moves)
			}
		}
	}
	fmt.Fprintf(out, "  attempted=%d failed=%d failed_fraction=%g\n\n", res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
}

// printJSON prints the driver's result object as the last line. For a
// single workload its metrics are keyed by metric name; for several,
// by "<workload>/<metric>".
func printJSON(out io.Writer, results []*result) int {
	type jsonValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]jsonValue `json:"metrics"`
	}{Metrics: map[string]jsonValue{}}
	for _, r := range results {
		obj.Attempted += r.Attempted
		obj.Failed += r.Failed
		for name, v := range r.Metrics {
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				fmt.Fprintf(os.Stderr, "benchmark: %s/%s is %v\n", r.Workload, name, v.Value)
				return 1
			}
			obj.Metrics[name] = jsonValue{v.Value, v.Unit}
		}
	}
	obj.Correct = obj.Failed == 0 && obj.Attempted > 0
	raw, err := json.Marshal(obj)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", raw)
	if !obj.Correct {
		return 1
	}
	return 0
}

// runAA runs the full set twice with the same code and seed,
// interleaved A/B/B/A so host drift lands on both sides, and holds
// each end-to-end metric's relative difference against its bound: the
// benchmark's own noise check. It returns non-zero if a metric fails
// it or anything failed verification.
func runAA(o options, out io.Writer) int {
	o.trace = 0
	code := 0
	fmt.Fprintf(out, "%-18s %-11s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for i := range workloads {
		def := &workloads[i]
		var ab [2]*result
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, side := range order {
			res, _, err := runOne(def, o)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if res.Failed > 0 {
				code = 1
			}
			ab[side] = res
		}
		for _, m := range endToEnd {
			a, b := ab[0].Metrics[m.Name].Value, ab[1].Metrics[m.Name].Value
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := "ok"
			if diff > m.Bound {
				verdict, code = "EXCEEDS", 1
			}
			fmt.Fprintf(out, "%-18s %-11s %14.6g %14.6g %7.2f%% %5.0f%% %s\n", def.Name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	return code
}

func printCatalogue(out io.Writer) {
	fmt.Fprintf(out, "threads=%d run_seconds=%d setup_reps=%d\n\nworkloads:\n", Threads, RunSeconds, SetupReps)
	for _, w := range workloads {
		fmt.Fprintf(out, "  %s\n    why:        %s\n    load:       %s\n    time_ms:    %s\n    rate_per_s: %s\n", w.Name, w.Why, w.Load, w.Time, w.Rate)
	}
	fmt.Fprintf(out, "\nend-to-end metrics (every workload, untraced run):\n")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-12s %-4s %-6s bound %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintf(out, "\nper-layer metrics (traced run; 0 on workloads that do not measure them):\n")
	for _, m := range perLayer {
		on := "all"
		if m.On != nil {
			s := append([]string(nil), m.On...)
			sort.Strings(s)
			on = fmt.Sprint(s)
		}
		fmt.Fprintf(out, "  %-38s %-6s %-6s on %s\n    moves %s\n", m.Name, m.Unit, m.Better, on, m.Moves)
	}
}
