package main

import (
	"fmt"
	"sync"
	"time"

	volatile "repro"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the benchmark's replica of the library's sharded sweep
// pipeline (volatile.RunSweep and volatile.MoldableSweep): the same chunks,
// trial seeds and aggregation order, driven through the layers' public
// functions. Instrumented, it wraps the interfaces the engine calls and
// times the calls it makes, for the traced run's ledger; plain, it only
// reports what each run returned (the simulated slots), which the library
// pipeline does not expose. Its result digest must equal the library's for
// the same plan; every run that uses it checks that.

// layerCounts is one worker's ledger; workers own theirs and the totals are
// summed after the pass, so the wrappers need no synchronisation.
type layerCounts struct {
	draws          int64 // avail Next + NextTransition calls
	picks          int64
	pickTime       time.Duration
	runs, censored int64
	slots          int64 // sum of makespans
	runTime        time.Duration
	decisions      int64
	resizes        int64
	allocTime      time.Duration
	scenarioTime   time.Duration
	trialTime      time.Duration
	mergeTime      time.Duration
	chunkMax       time.Duration
	chunks         int64
}

func (c *layerCounts) add(o *layerCounts) {
	c.draws += o.draws
	c.picks += o.picks
	c.pickTime += o.pickTime
	c.runs += o.runs
	c.censored += o.censored
	c.slots += o.slots
	c.runTime += o.runTime
	c.decisions += o.decisions
	c.resizes += o.resizes
	c.allocTime += o.allocTime
	c.scenarioTime += o.scenarioTime
	c.trialTime += o.trialTime
	c.mergeTime += o.mergeTime
	c.chunkMax = max(c.chunkMax, o.chunkMax)
	c.chunks += o.chunks
}

// exact reports the counts that must repeat exactly for one seed.
func (c *layerCounts) exact() [6]int64 {
	return [6]int64{c.draws, c.picks, c.slots, c.censored, c.decisions, c.resizes}
}

// countedProcess counts the draws of a Process that is not a Trajectory.
type countedProcess struct {
	inner avail.Process
	n     *int64
}

func (p *countedProcess) Next() avail.State { *p.n++; return p.inner.Next() }

// countedTrajectory counts the draws of a Trajectory through either view.
type countedTrajectory struct {
	inner avail.Trajectory
	n     *int64
}

func (p *countedTrajectory) Next() avail.State { *p.n++; return p.inner.Next() }
func (p *countedTrajectory) NextTransition() (avail.State, int) {
	*p.n++
	return p.inner.NextTransition()
}

// procWrappers wraps a trial's processes, reusing its storage across trials.
// A wrapper implements avail.Trajectory exactly when the wrapped process
// does, so the engine's event clock accepts or rejects it as it would the
// original.
type procWrappers struct {
	out   []avail.Process
	procs []countedProcess
	trajs []countedTrajectory
}

func (w *procWrappers) wrap(ps []avail.Process, n *int64) []avail.Process {
	if cap(w.out) < len(ps) {
		w.out = make([]avail.Process, len(ps))
		w.procs = make([]countedProcess, len(ps))
		w.trajs = make([]countedTrajectory, len(ps))
	}
	w.out = w.out[:len(ps)]
	for i, p := range ps {
		if t, ok := p.(avail.Trajectory); ok {
			w.trajs[i] = countedTrajectory{inner: t, n: n}
			w.out[i] = &w.trajs[i]
		} else {
			w.procs[i] = countedProcess{inner: p, n: n}
			w.out[i] = &w.procs[i]
		}
	}
	return w.out
}

// timedScheduler counts and times Pick calls.
type timedScheduler struct {
	inner sim.Scheduler
	c     *layerCounts
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	t := time.Now()
	q := s.inner.Pick(v, eligible, rs, ti)
	s.c.pickTime += time.Since(t)
	s.c.picks++
	return q
}

// The variants below add exactly the optional interfaces (sim.Poolable,
// sim.Canceller) the wrapped scheduler implements, so the engine and the
// scheduler pool take the same paths with and without the wrapper.
type poolableScheduler struct {
	*timedScheduler
	p sim.Poolable
}

func (s poolableScheduler) PoolSafe() bool { return s.p.PoolSafe() }

type cancellerScheduler struct {
	*timedScheduler
	cn sim.Canceller
}

func (s cancellerScheduler) Cancel(v *sim.View) []int { return s.cn.Cancel(v) }

type poolableCancellerScheduler struct {
	*timedScheduler
	p  sim.Poolable
	cn sim.Canceller
}

func (s poolableCancellerScheduler) PoolSafe() bool           { return s.p.PoolSafe() }
func (s poolableCancellerScheduler) Cancel(v *sim.View) []int { return s.cn.Cancel(v) }

func wrapScheduler(s sim.Scheduler, c *layerCounts) sim.Scheduler {
	ts := &timedScheduler{inner: s, c: c}
	p, isPoolable := s.(sim.Poolable)
	cn, isCanceller := s.(sim.Canceller)
	switch {
	case isPoolable && isCanceller:
		return poolableCancellerScheduler{ts, p, cn}
	case isPoolable:
		return poolableScheduler{ts, p}
	case isCanceller:
		return cancellerScheduler{ts, cn}
	}
	return ts
}

// countedPolicy counts, times and classifies allocation decisions. A
// decision is a resize when it differs from the task count of the
// iteration before it (the application's natural shape, Params.M, for the
// first one).
type countedPolicy struct {
	inner sim.AllocationPolicy
	c     *layerCounts
}

func (p *countedPolicy) Name() string { return p.inner.Name() }

func (p *countedPolicy) TasksFor(v *sim.View, prev sim.IterationInfo) int {
	t := time.Now()
	n := p.inner.TasksFor(v, prev)
	p.c.allocTime += time.Since(t)
	p.c.decisions++
	last := prev.Tasks
	if prev.Iteration < 0 {
		last = v.Params.M
	}
	if n != last {
		p.c.resizes++
	}
	return n
}

// deriveSeed mixes sweep indices into a sub-seed exactly as the library's
// sweep pipeline does, so the replica sees the same scenarios and trials.
func deriveSeed(parts ...uint64) uint64 {
	s := rng.SplitMix64(0x9E3779B97F4A7C15)
	acc := s.Next()
	for _, p := range parts {
		sp := rng.SplitMix64(acc ^ p)
		acc = sp.Next()
	}
	return acc
}

// scenarioSeedTag is the index the pipeline mixes in for scenario draws.
const scenarioSeedTag = 0xA11CE

// workloadOptions mirrors volatile.ScenarioOptions' mapping onto the
// generator's options.
func workloadOptions(o volatile.ScenarioOptions) workload.Options {
	return workload.Options{
		P: o.Processors, Iterations: o.Iterations, CommScale: o.CommScale,
		MaxReplicas: o.MaxReplicas, MaxSlots: o.MaxSlots,
	}
}

// replicaWorker is one worker's pooled engine and trial scratch, mirroring
// volatile.Runner: one sim.Runner, one TrialPool, one scheduler per
// heuristic kept across runs when it is pool-safe, one policy instance.
type replicaWorker struct {
	instrument bool
	c          layerCounts
	runner     sim.Runner
	trialRng   rng.PCG
	trials     workload.TrialPool
	wrappers   procWrappers
	scheds     map[string]*pooledScheduler
	policy     sim.AllocationPolicy
}

type pooledScheduler struct {
	pcg   rng.PCG
	sched sim.Scheduler
}

func newReplicaWorker(p *sweepPlan, instrument bool) (*replicaWorker, error) {
	w := &replicaWorker{instrument: instrument, scheds: map[string]*pooledScheduler{}}
	if p.alloc != "" {
		pol, err := sim.ParseAllocPolicy(p.alloc)
		if err != nil {
			return nil, err
		}
		w.policy = pol
		if instrument {
			w.policy = &countedPolicy{inner: pol, c: &w.c}
		}
	}
	return w, nil
}

// instance returns the pooled scheduler of ps, constructing and wrapping
// one when none is kept. Construction draws nothing from ps.pcg.
func (w *replicaWorker) instance(ps *pooledScheduler, name string) (sim.Scheduler, error) {
	if ps.sched != nil {
		return ps.sched, nil
	}
	s, err := core.New(name, &ps.pcg)
	if err != nil {
		return nil, err
	}
	ws := s
	if w.instrument {
		ws = wrapScheduler(s, &w.c)
	}
	if sim.PoolSafe(ws) {
		ps.sched = ws
	}
	return ws, nil
}

// run executes one heuristic on one trial, consuming the trial seed exactly
// as volatile.Scenario.RunWith does.
func (w *replicaWorker) run(p *sweepPlan, scn *workload.Scenario, heuristic string, trialSeed uint64) (*sim.Result, error) {
	w.trialRng.Reseed(trialSeed)
	t := time.Now()
	procs := w.trials.Trial(scn, &w.trialRng)
	w.c.trialTime += time.Since(t)
	ps := w.scheds[heuristic]
	if ps == nil {
		ps = &pooledScheduler{}
		w.scheds[heuristic] = ps
	}
	w.trialRng.SplitInto(&ps.pcg)
	sched, err := w.instance(ps, heuristic)
	if err != nil {
		return nil, err
	}
	if w.instrument {
		procs = w.wrappers.wrap(procs, &w.c.draws)
	}
	cfg := sim.Config{
		Platform:  scn.Platform,
		Params:    scn.Params,
		Procs:     procs,
		Scheduler: sched,
		Alloc:     w.policy,
		Mode:      p.mode,
	}
	t = time.Now()
	res, err := w.runner.Run(cfg)
	w.c.runTime += time.Since(t)
	if err != nil {
		return nil, err
	}
	w.c.runs++
	w.c.slots += int64(res.Makespan)
	if !res.Completed {
		w.c.censored++
	}
	return res, nil
}

// replicaPass runs the plan once through the replica pipeline and returns
// its result and the summed ledger; only an instrumented pass fills the
// wrapper counts (draws, picks, allocation decisions).
func replicaPass(p *sweepPlan, instrument bool) (*volatile.SweepResult, *layerCounts, error) {
	chunks := len(p.cells) * p.scenarios
	scenarios := make([]*workload.Scenario, chunks)
	var total layerCounts
	opts := workloadOptions(p.opts)
	for ci := range scenarios {
		c, s := ci/p.scenarios, ci%p.scenarios
		cell := p.cells[c]
		t := time.Now()
		scenarios[ci] = workload.Generate(rng.New(deriveSeed(p.seed, uint64(c), uint64(s), scenarioSeedTag)),
			workload.Cell{N: cell.Tasks, Ncom: cell.Ncom, Wmin: cell.Wmin}, opts)
		total.scenarioTime += time.Since(t)
	}

	shards := make([]*stats.ShardAggregator, chunks)
	jobs := make(chan int)
	errs := make(chan error, p.workers)
	workers := make([]*replicaWorker, p.workers)
	var wg sync.WaitGroup
	for i := range workers {
		w, err := newReplicaWorker(p, instrument)
		if err != nil {
			return nil, nil, err
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ci := range jobs {
				start := time.Now()
				shard := stats.NewShardAggregator()
				c, s := ci/p.scenarios, ci%p.scenarios
				for tr := 0; tr < p.trials; tr++ {
					ir := shard.Acquire()
					trialSeed := deriveSeed(p.seed, uint64(c), uint64(s), uint64(tr))
					nCens := 0
					for _, h := range p.heuristics {
						res, err := w.run(p, scenarios[ci], h, trialSeed)
						if err != nil {
							errs <- fmt.Errorf("%s on chunk %d: %w", h, ci, err)
							for range jobs {
							}
							return
						}
						ir.Makespans[h] = res.Makespan
						if !res.Completed {
							ir.Censored[h] = true
							nCens++
						}
					}
					shard.Add(ir, nCens)
				}
				shards[ci] = shard
				w.c.chunkMax = max(w.c.chunkMax, time.Since(start))
				w.c.chunks++
			}
		}()
	}
	for ci := 0; ci < chunks; ci++ {
		jobs <- ci
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return nil, nil, err
	default:
	}
	for _, w := range workers {
		total.add(&w.c)
	}

	// Commit in chunk order, as the pipeline's committer does.
	overall := stats.NewAggregator()
	byWmin := map[int]*stats.Aggregator{}
	byCell := map[volatile.Cell]*stats.Aggregator{}
	censored := 0
	for ci, shard := range shards {
		cell := p.cells[ci/p.scenarios]
		if byWmin[cell.Wmin] == nil {
			byWmin[cell.Wmin] = stats.NewAggregator()
		}
		if byCell[cell] == nil {
			byCell[cell] = stats.NewAggregator()
		}
		t := time.Now()
		stats.Merge(shard, overall, byWmin[cell.Wmin], byCell[cell])
		total.mergeTime += time.Since(t)
		censored += shard.CensoredRuns()
	}
	res := &volatile.SweepResult{
		Instances: overall.Instances(),
		Overall:   overall.Rows(),
		ByWmin:    map[int][]volatile.TableRow{},
		ByCell:    map[volatile.Cell][]volatile.TableRow{},
		Censored:  censored,
	}
	for wmin, a := range byWmin {
		res.ByWmin[wmin] = a.Rows()
	}
	for cell, a := range byCell {
		res.ByCell[cell] = a.Rows()
	}
	return res, &total, nil
}
