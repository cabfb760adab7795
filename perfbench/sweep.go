package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	volatile "repro"
	"repro/internal/faultinject"
)

// sweepPlan is one sweep workload: the grid, the heuristics and the engine
// settings, built from the library's own config constructors.
type sweepPlan struct {
	name              string
	cells             []volatile.Cell
	heuristics        []string
	scenarios, trials int
	opts              volatile.ScenarioOptions
	mode              volatile.Mode
	alloc             string // allocation-policy spec; "" is the fixed model (RunSweep)
	seed              uint64
	workers           int
}

func planOf(name string, cfg volatile.SweepConfig, workers int) *sweepPlan {
	h := cfg.Heuristics
	if len(h) == 0 {
		h = volatile.Heuristics()
	}
	return &sweepPlan{
		name: name, cells: cfg.Cells, heuristics: h, scenarios: cfg.Scenarios, trials: cfg.Trials,
		opts: cfg.Options, mode: cfg.Mode, seed: cfg.Seed, workers: workers,
	}
}

// paperGrid is the paper's Table 2 grid: 120 cells, all 17 heuristics,
// P = 20, slot mode.
func paperGrid(e *runEnv) *sweepPlan {
	return planOf("paper-grid", volatile.Table2Config(1, 1, e.seed), e.workers)
}

// volunteerGrid is one P = 10,000 chunk of the large-platform family in
// event mode.
func volunteerGrid(e *runEnv) *sweepPlan {
	cfg := volatile.LargePConfig(10000, 1, 1, e.seed)
	cfg.Mode = volatile.ModeEvent
	return planOf("volunteer-grid", cfg, e.workers)
}

// moldableGrid is the Table 2 grid under the maximum-iters policy.
func moldableGrid(e *runEnv) *sweepPlan {
	mc := volatile.MoldableSweepConfig("maximum-iters", 1, 1, e.seed)
	p := planOf("moldable-grid", volatile.SweepConfig{
		Cells: mc.Cells, Heuristics: mc.Heuristics, Scenarios: mc.Scenarios, Trials: mc.Trials,
		Options: mc.Options, Mode: mc.Mode, Seed: mc.Seed,
	}, e.workers)
	p.alloc = mc.Alloc
	return p
}

// runsPerPass is the number of simulation runs one pass executes.
func (p *sweepPlan) runsPerPass() int {
	return len(p.cells) * p.scenarios * p.trials * len(p.heuristics)
}

// run executes one pass through the library's sweep entry point.
func (p *sweepPlan) run(progress func(done, total int), faults *faultinject.Plan) (*volatile.SweepResult, error) {
	if p.alloc == "" {
		return volatile.RunSweep(volatile.SweepConfig{
			Cells: p.cells, Heuristics: p.heuristics, Scenarios: p.scenarios, Trials: p.trials,
			Options: p.opts, Mode: p.mode, Seed: p.seed, Workers: p.workers,
			Progress: progress, Faults: faults,
		})
	}
	return volatile.MoldableSweep(volatile.MoldableConfig{
		Cells: p.cells, Heuristics: p.heuristics, Alloc: p.alloc, Scenarios: p.scenarios, Trials: p.trials,
		Options: p.opts, Mode: p.mode, Seed: p.seed, Workers: p.workers,
		Progress: progress, Faults: faults,
	})
}

// warmup is every tenth cell of the plan, one instance each, capped at
// warmupSlots slots per run: it touches every heuristic, the engine at full
// platform size and the sweep pipeline without the cost of a whole pass.
func (p *sweepPlan) warmup() *sweepPlan {
	w := *p
	w.cells = nil
	for i := 0; i < len(p.cells); i += 10 {
		w.cells = append(w.cells, p.cells[i])
	}
	w.scenarios, w.trials = 1, 1
	w.opts.MaxSlots = warmupSlots
	return &w
}

const warmupSlots = 50

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// checkResult applies the correctness gates to one pass's result: the
// pinned digest at the pinned seed, the seed-free checks otherwise.
func checkResult(rep *report, e *runEnv, p *sweepPlan, label string, res *volatile.SweepResult) {
	want := len(p.cells) * p.scenarios * p.trials
	if pin, ok := e.pins.Digests[p.name]; ok && e.seed == e.pins.Seed {
		rep.check(res.Digest() == pin, "%s digest %.16s matches the pin for seed %d", label, res.Digest(), e.seed)
		return
	}
	wins := 0
	for _, r := range res.Overall {
		wins += r.Wins
	}
	rep.check(res.Instances == want && res.FailedInstances == 0 && wins >= res.Instances,
		"%s instances %d of %d, %d failed, %d wins", label, res.Instances, want, res.FailedInstances, wins)
}

// runSweepWorkload sets the plan up setupRepeats times (config build plus
// a warm-up run), then measures whole passes for the window.
func runSweepWorkload(e *runEnv, build func(*runEnv) *sweepPlan) (*report, error) {
	rep := newReport()
	var setups []float64
	var p *sweepPlan
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		p = build(e)
		if _, err := p.warmup().run(nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if e.trace {
		return runTraced(e, p, rep)
	}
	var passes []float64
	digest := ""
	cpu0 := cpuSeconds()
	steal0, total0 := hostTicks()
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < e.seconds {
		t := time.Now()
		res, err := p.run(nil, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, time.Since(t).Seconds())
		rep.attempted += int64(p.runsPerPass())
		if digest == "" {
			digest = res.Digest()
			checkResult(rep, e, p, "pass 1", res)
		} else if res.Digest() != digest {
			rep.check(false, "pass %d digest %.16s differs from pass 1's %.16s", len(passes), res.Digest(), digest)
		}
	}
	cpu := cpuSeconds() - cpu0
	steal := stealFrac(steal0, total0)
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, err
	}
	// The library pipeline does not report makespans. Every pass of a plan
	// simulates the same runs, so one plain replica pass after the window
	// counts the simulated slots of each; it must reproduce the digest.
	res, counts, err := replicaPass(p, false)
	if err != nil {
		return nil, err
	}
	rep.check(res.Digest() == digest, "%d passes and the replica share digest %s", len(passes), digest)
	total := sum(passes)
	slots := float64(counts.slots) * float64(len(passes))
	rep.values["setup_s"] = median(setups)
	rep.values["slots_per_cpu_s"] = slots / cpu
	rep.values["peak_rss_mb"] = rss
	rep.note("slots_per_s", slots/total, "1/s", fmt.Sprintf("%.0f slots in %.3g s of passes, %.3g CPU s", slots, total, cpu))
	rep.note("runs_per_s", float64(rep.attempted)/total, "1/s", fmt.Sprintf("%d runs", rep.attempted))
	rep.note("job_p50_s", median(passes), "s", fmt.Sprintf("median of %d passes", len(passes)))
	rep.note("host_steal_frac", steal, "frac", "CPU time the hypervisor took from this machine during the window")
	return rep, nil
}

// runTraced is the traced run of a sweep workload. It measures the library
// pipeline once under a CPU profile (self time by package, allocations, GC
// share, worker busy time), then runs the replica pipeline, whose wrappers
// count and time the layer calls. Both must reproduce the same digest.
func runTraced(e *runEnv, p *sweepPlan, rep *report) (*report, error) {
	// Library pass. Worker busy time is the sum of instance end times minus
	// the sum of instance start times: each worker runs its instances one
	// after another, so the difference is the time workers spent inside
	// instances, without having to know which worker ran which.
	var startSum, endSum atomic.Int64
	t0 := time.Now()
	faults := &faultinject.Plan{Instance: func(_, _, _ int) error {
		startSum.Add(int64(time.Since(t0)))
		return nil
	}}
	progress := func(int, int) { endSum.Add(int64(time.Since(t0))) }
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	before := readRuntime()
	t := time.Now()
	libRes, err := p.run(progress, faults)
	libWall := time.Since(t)
	after := readRuntime()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	checkResult(rep, e, p, "library pass", libRes)
	self, err := selfByPackage(prof.Bytes())
	if err != nil {
		return nil, err
	}

	// Replica passes, repeated for the window; every pass must reproduce the
	// library digest and the first pass's exact counts.
	var first *layerCounts
	var replicaWall time.Duration
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start).Seconds() < e.seconds/2 {
		t := time.Now()
		res, counts, err := replicaPass(p, true)
		if err != nil {
			return nil, err
		}
		replicaWall += time.Since(t)
		passes++
		rep.attempted += int64(p.runsPerPass())
		if first == nil {
			first = counts
			rep.check(res.Digest() == libRes.Digest(), "traced digest %s equals untraced digest %s", res.Digest(), libRes.Digest())
		} else if counts.exact() != first.exact() || res.Digest() != libRes.Digest() {
			rep.check(false, "traced pass %d repeats pass 1's counts and digest", passes)
		}
	}
	rep.check(true, "%d traced passes repeat exact counts %v", passes, first.exact())

	runs := float64(p.runsPerPass())
	libRate := runs / libWall.Seconds()
	tracedRate := runs * float64(passes) / replicaWall.Seconds()
	v := rep.values
	zeroLayers(v)
	v["avail.draws"] = float64(first.draws)
	v["avail.self_s"] = self["repro/internal/avail"]
	v["markov.self_s"] = self["repro/internal/markov"]
	v["rng.self_s"] = self["repro/internal/rng"]
	v["core.picks"] = float64(first.picks)
	v["core.ns_per_pick"] = nsPer(first.pickTime, first.picks)
	v["core.self_s"] = self["repro/internal/core"]
	v["expect.self_s"] = self["repro/internal/expect"]
	v["sim.runs"] = float64(first.runs)
	v["sim.slots"] = float64(first.slots)
	v["sim.censored"] = float64(first.censored)
	v["sim.self_s"] = self["repro/internal/sim"]
	v["sim.ns_per_slot"] = nsPer(first.runTime, first.slots)
	v["sim.allocs_per_run"] = float64(after.allocs-before.allocs) / runs
	v["sim.alloc.decisions"] = float64(first.decisions)
	v["sim.alloc.resizes"] = float64(first.resizes)
	v["sim.alloc.self_s"] = first.allocTime.Seconds()
	v["workload.scenario_s"] = first.scenarioTime.Seconds()
	v["workload.trial_s"] = first.trialTime.Seconds()
	v["volatile.chunks"] = float64(first.chunks)
	v["volatile.worker_busy_frac"] = float64(endSum.Load()-startSum.Load()) / (float64(p.workers) * float64(libWall))
	v["volatile.chunk_max_ms"] = float64(first.chunkMax) / 1e6
	v["volatile.self_s"] = self["repro"]
	v["stats.self_s"] = self["repro/internal/stats"]
	v["stats.merge_ms"] = float64(first.mergeTime) / 1e6
	for pkg, sec := range self {
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
			v["runtime.self_s"] += sec
		}
	}
	v["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / (after.allCPU - before.allCPU)
	v["trace.overhead_frac"] = 1 - tracedRate/libRate
	return rep, nil
}

// zeroLayers sets every per-layer metric to 0, so a traced run reports the
// layers its workload does not reach as 0.
func zeroLayers(v map[string]float64) {
	for _, m := range perLayer {
		v[m.name] = 0
	}
}

func nsPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
