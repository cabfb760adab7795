// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed measuring window and prints, as its last line of
// standard output, a JSON object with the correctness verdict, the number of
// operations attempted and failed, and the metrics: the end-to-end metrics
// with -trace 0, the per-layer ledger with -trace 1. The lines before it
// record the machine, the seed and every correctness check.
//
// Build and run it through run.sh, which compiles this module and the
// volaserved binary into .bench_build of the checkout:
//
//	bash perfbench/run.sh --workload paper-grid --seed 42 --seconds 10 --trace 0
//
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each per-layer metric should move.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric and its unit. The lists below must match
// BENCHMARK.json at the repository root (TestMetricListsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slots_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"avail.draws", "count"},
	{"avail.self_s", "s"},
	{"markov.self_s", "s"},
	{"rng.self_s", "s"},
	{"core.picks", "count"},
	{"core.ns_per_pick", "ns"},
	{"core.self_s", "s"},
	{"expect.self_s", "s"},
	{"sim.runs", "count"},
	{"sim.slots", "count"},
	{"sim.censored", "count"},
	{"sim.self_s", "s"},
	{"sim.ns_per_slot", "ns"},
	{"sim.allocs_per_run", "count"},
	{"sim.alloc.decisions", "count"},
	{"sim.alloc.resizes", "count"},
	{"sim.alloc.self_s", "s"},
	{"workload.scenario_s", "s"},
	{"workload.trial_s", "s"},
	{"volatile.chunks", "count"},
	{"volatile.worker_busy_frac", "frac"},
	{"volatile.chunk_max_ms", "ms"},
	{"volatile.self_s", "s"},
	{"stats.self_s", "s"},
	{"stats.merge_ms", "ms"},
	{"checkpoint.writes", "count"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"jobs.sweeps_started", "count"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.busy_frac", "frac"},
	{"sweepreq.build_us", "us"},
	{"jobs.submit_hit_us", "us"},
	{"jobs.result_us", "us"},
	{"volaserved.requests", "count"},
	{"volaserved.overhead_us", "us"},
	{"runtime.self_s", "s"},
	{"runtime.gc_cpu_frac", "frac"},
	{"gen.late_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// pins holds the result digest of every sweep workload at the default seed.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// runEnv is what a workload receives: the generated-input seed, the window
// length, and where it may build scratch files and find binaries.
type runEnv struct {
	seed    uint64
	seconds float64
	trace   bool
	workers int
	bin     string // directory holding the volaserved binary
	scratch string // per-run scratch directory, removed at exit
	pins    pinFile
}

// report is a workload's outcome: metric values by name, operation counts,
// the correctness checks it made, and notes: metrics printed for the reader
// that are not in the result line.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	checks    []string
	notes     []string
	ok        bool
}

func newReport() *report { return &report{values: map[string]float64{}, ok: true} }

// check records one correctness gate; a false cond makes the run incorrect.
func (r *report) check(cond bool, format string, args ...any) {
	verdict := "ok"
	if !cond {
		verdict = "FAIL"
		r.ok = false
	}
	r.checks = append(r.checks, verdict+" "+fmt.Sprintf(format, args...))
}

// note records a metric that is printed but not part of the result line.
func (r *report) note(name string, value float64, unit, detail string) {
	r.notes = append(r.notes, fmt.Sprintf("%s %.6g %s (%s)", name, value, unit, detail))
}

var workloads = map[string]func(*runEnv) (*report, error){
	"paper-grid":     func(e *runEnv) (*report, error) { return runSweepWorkload(e, paperGrid) },
	"volunteer-grid": func(e *runEnv) (*report, error) { return runSweepWorkload(e, volunteerGrid) },
	"moldable-grid":  func(e *runEnv) (*report, error) { return runSweepWorkload(e, moldableGrid) },
	"served-mix":     runServedMix,
}

func main() {
	name := flag.String("workload", "", "workload to run (paper-grid, volunteer-grid, moldable-grid, served-mix)")
	seed := flag.Uint64("seed", 42, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measuring window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer ledger")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built volaserved binary")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for per-run scratch files")
	commit := flag.String("commit", "unknown", "commit the binaries were built from, recorded with the result")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %s, -trace 0|1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	var pins pinFile
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pins.json:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(*scratch, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := &runEnv{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: runtime.NumCPU(), bin: *bin, scratch: dir, pins: pins,
	}
	printEnv(*name, *seed, *trace, *commit)
	rep, err := run(env)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !emit(rep, env.trace) {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printEnv records the machine, toolchain, commit and seed of the result.
func printEnv(name string, seed uint64, trace int, commit string) {
	env := map[string]any{
		"workload": name, "seed": seed, "trace": trace,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
	b, _ := json.Marshal(env) // a map of strings and ints always encodes
	fmt.Printf("# env %s\n", b)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the checks, a readable metric table and the result line. It
// reports whether the run was correct and complete.
func emit(rep *report, traced bool) bool {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultOut{Correct: rep.ok, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricOut{}}
	for _, c := range rep.checks {
		fmt.Printf("# check %s\n", c)
	}
	if rep.attempted > 0 {
		rep.note("error_frac", float64(rep.failed)/float64(rep.attempted), "frac",
			fmt.Sprintf("%d failed of %d attempted", rep.failed, rep.attempted))
	}
	for _, n := range rep.notes {
		fmt.Printf("# note %s\n", n)
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return false
		}
		fmt.Printf("# metric %s %.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(b))
	return rep.ok && rep.attempted > 0
}
