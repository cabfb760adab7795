// Package volatile is the public API of this reproduction of
// "Scheduling Parallel Iterative Applications on Volatile Resources"
// (Casanova, Dufossé, Robert, Vivien — IPDPS 2011 / LIP RR-2010-31).
//
// It simulates master-worker iterative applications on processors that
// alternate between UP, RECLAIMED and DOWN states, under a bounded
// multi-port communication model (the master sustains at most ncom
// simultaneous transfers), and implements the paper's seventeen scheduling
// heuristics: the random family (uniform + four reliability weights, each
// optionally speed-scaled) and the greedy family (MCT, EMCT, LW, UD and
// their contention-corrected * variants).
//
// Typical use:
//
//	scn := volatile.NewScenario(42, volatile.Cell{Tasks: 20, Ncom: 10, Wmin: 3},
//	    volatile.ScenarioOptions{})
//	res, err := scn.Run("emct*", 1)
//	// res.Makespan is the number of slots needed for 10 iterations.
//
// The sweep API (RunSweep, Table2Config, Figure2Config, Table3Config)
// regenerates the paper's Table 2, Figure 2 and Table 3.
package volatile

import (
	"fmt"
	"strings"

	"repro/internal/avail"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cell is one experimental parameter combination of the paper's Table 1.
type Cell struct {
	// Tasks is the number of tasks per iteration (the paper's n).
	Tasks int
	// Ncom is the master's concurrent-transfer budget.
	Ncom int
	// Wmin scales task durations: processor speeds are drawn uniformly from
	// [Wmin, 10·Wmin]; Tdata = Wmin and Tprog = 5·Wmin (times CommScale).
	Wmin int
}

// String renders the cell compactly.
func (c Cell) String() string {
	return fmt.Sprintf("n=%d ncom=%d wmin=%d", c.Tasks, c.Ncom, c.Wmin)
}

// PaperGrid returns the 120 cells of the paper's Table 1.
func PaperGrid() []Cell {
	cells := workload.PaperGrid()
	out := make([]Cell, len(cells))
	for i, c := range cells {
		out[i] = Cell{Tasks: c.N, Ncom: c.Ncom, Wmin: c.Wmin}
	}
	return out
}

// ContentionCell returns the Table 3 setting (n=20, ncom=5, wmin=1), to be
// combined with ScenarioOptions.CommScale 5 or 10.
func ContentionCell() Cell { return Cell{Tasks: 20, Ncom: 5, Wmin: 1} }

// ScenarioOptions tunes scenario generation. The zero value reproduces the
// paper's settings: 20 processors, 10 iterations, communication scale 1,
// up to 2 extra replicas per task.
type ScenarioOptions struct {
	// Processors is the platform size (default 20).
	Processors int
	// Iterations is the number of iterations per run (default 10).
	Iterations int
	// CommScale multiplies Tdata and Tprog (default 1; Table 3 uses 5, 10).
	CommScale int
	// MaxReplicas caps extra task copies: 0 means the paper default of 2;
	// negative disables replication entirely.
	MaxReplicas int
	// MaxSlots caps run length (0 = a generous default); capped runs are
	// reported as censored.
	MaxSlots int
}

// Validate rejects option values scenario generation cannot honor. The
// zero value (the paper's defaults) is always valid; a negative MaxReplicas
// is the documented replication-disable switch, so it is valid too. Sweeps
// validate their Options up front; NewScenario has no error path, so
// callers overriding Processors (the volunteer-grid regime, P = 1k-100k)
// should Validate first.
func (o ScenarioOptions) Validate() error {
	if o.Processors < 0 {
		return fmt.Errorf("volatile: Processors %d: must be >= 0 (0 = paper default of 20)", o.Processors)
	}
	if o.Iterations < 0 {
		return fmt.Errorf("volatile: Iterations %d: must be >= 0 (0 = paper default of 10)", o.Iterations)
	}
	if o.CommScale < 0 {
		return fmt.Errorf("volatile: CommScale %d: must be >= 0 (0 = paper default of 1)", o.CommScale)
	}
	if o.MaxSlots < 0 {
		return fmt.Errorf("volatile: MaxSlots %d: must be >= 0 (0 = default cap)", o.MaxSlots)
	}
	return nil
}

func (o ScenarioOptions) toWorkload() workload.Options {
	return workload.Options{
		P:           o.Processors,
		Iterations:  o.Iterations,
		CommScale:   o.CommScale,
		MaxReplicas: o.MaxReplicas,
		MaxSlots:    o.MaxSlots,
	}
}

// Heuristics lists every implemented heuristic name in the paper's Table 2
// order: emct, emct*, mct, mct*, ud*, ud, lw*, lw, random1w..random3w,
// random3..random2, random.
func Heuristics() []string { return core.Names() }

// GreedyHeuristics lists the greedy family (the curves of Figure 2 plus
// their uncorrected counterparts).
func GreedyHeuristics() []string { return core.GreedyNames() }

// Mode selects how availability is sampled: ModeSlot draws once per slot
// (the reference semantics and the default), ModeEvent once per sojourn.
// Both run on the same clock, which steps every slot, for the heuristics
// and the batch disciplines alike. See avail.Mode for the equivalence
// contract between the two.
type Mode = avail.Mode

// Sampling modes re-exported for mode selection.
const (
	ModeSlot  = avail.ModeSlot
	ModeEvent = avail.ModeEvent
)

// ParseMode parses a mode name ("slot" or "event"), failing with the list
// of valid names.
func ParseMode(s string) (Mode, error) { return avail.ParseMode(s) }

// ModeNames returns the valid mode names.
func ModeNames() []string { return avail.ModeNames() }

// Event kinds re-exported for event-stream consumers.
const (
	EvProgramStart  = sim.EvProgramStart
	EvDataStart     = sim.EvDataStart
	EvComputeStart  = sim.EvComputeStart
	EvTaskComplete  = sim.EvTaskComplete
	EvCopyCancelled = sim.EvCopyCancelled
	EvCrash         = sim.EvCrash
	EvIterationDone = sim.EvIterationDone
)

// Aliased result types (defined in the simulation engine).
type (
	// RunResult is the outcome of one simulation run.
	RunResult = sim.Result
	// RunStats carries the resource counters of a run.
	RunStats = sim.Stats
	// Event is an engine occurrence (for verbose timelines).
	Event = sim.Event
	// SlotReport is the per-slot observer payload.
	SlotReport = sim.SlotReport
	// AllocationPolicy decides a moldable application's tasks-per-iteration
	// count at every iteration boundary (see RunSpec.Alloc and SweepConfig.Alloc).
	AllocationPolicy = sim.AllocationPolicy
)

// ParseAllocPolicy builds an allocation policy from its spec string
// ("fixed", "maximum-iters", "split-into[:parts]", "reshape[:step]"). Each
// call returns a fresh instance; stateful policies (reshape) reset at every
// run boundary, so one instance may serve many sequential runs but must not
// be shared between goroutines.
func ParseAllocPolicy(spec string) (AllocationPolicy, error) {
	return sim.ParseAllocPolicy(spec)
}

// AllocPolicySpecs lists the accepted allocation-policy spec forms.
func AllocPolicySpecs() []string { return sim.AllocPolicySpecs() }

// Scenario is a concrete experimental setting: a randomly drawn platform
// plus run parameters. Runs on the same Scenario with the same trial seed
// see identical availability trajectories, so heuristics can be compared
// instance by instance (the paper's dfb metric).
type Scenario struct {
	inner *workload.Scenario
	// traces interns parsed vectors and fitted models for trace-driven runs
	// (see trace.go); it is safe for concurrent use by sweep workers.
	traces traceCache
}

// NewScenario draws a scenario from the given seed using the generation
// rules of the paper's Section 7.
func NewScenario(seed uint64, cell Cell, opt ScenarioOptions) *Scenario {
	wo := opt.toWorkload()
	disableReplicas := wo.MaxReplicas < 0
	if disableReplicas {
		wo.MaxReplicas = 2 // placeholder; zeroed after generation
	}
	scn := workload.Generate(rng.New(seed), workload.Cell{N: cell.Tasks, Ncom: cell.Ncom, Wmin: cell.Wmin}, wo)
	if disableReplicas {
		scn.Params.MaxReplicas = 0
	}
	return &Scenario{inner: scn}
}

// Describe returns a human-readable summary of the scenario.
func (s *Scenario) Describe() string {
	var b strings.Builder
	p := s.inner.Params
	fmt.Fprintf(&b, "scenario %s: %d processors, %d iterations of %d tasks\n",
		s.inner.Name, s.inner.Platform.P(), p.Iterations, p.M)
	fmt.Fprintf(&b, "  Tprog=%d Tdata=%d ncom=%d max extra replicas=%d\n",
		p.Tprog, p.Tdata, p.Ncom, p.MaxReplicas)
	for _, proc := range s.inner.Platform.Processors {
		piU, piR, piD := proc.Avail.Stationary()
		fmt.Fprintf(&b, "  P%-2d w=%-3d piU=%.3f piR=%.3f piD=%.3f\n",
			proc.ID, proc.W, piU, piR, piD)
	}
	return b.String()
}

// Params returns the run parameters (m, ncom, Tprog, Tdata, iterations...).
func (s *Scenario) Params() platform.Params { return s.inner.Params }

// Processors returns the number of processors in the platform.
func (s *Scenario) Processors() int { return s.inner.Platform.P() }

// ProcessorSpeed returns w_i, the UP slots processor i needs per task.
func (s *Scenario) ProcessorSpeed(i int) int {
	return s.inner.Platform.Processors[i].W
}

// ProcessorModel returns the 3-state Markov availability model of
// processor i (the model informed heuristics consult, and the generator of
// its trajectories in model-driven runs).
func (s *Scenario) ProcessorModel(i int) *avail.Markov3 {
	return s.inner.Platform.Processors[i].Avail
}

// Runner wraps a reusable simulation engine plus per-trial scratch. Tight
// loops (sweeps, benchmarks) that execute many runs on one goroutine should
// create one Runner and set it in every RunSpec: every engine-internal
// buffer (worker states, task tables, scheduler view, scratch, the copy
// pool), every trial resource (availability processes, their RNG streams,
// trace replay processes) and the batch engine are then recycled across
// runs instead of reallocated. Results are identical to a one-shot run's. A
// Runner must not be shared between goroutines.
type Runner struct {
	r sim.Runner
	// batch is the pooled engine of batch-discipline runs.
	batch batch.Runner
	// trialRng is the pooled per-trial generator, reseeded per run.
	trialRng rng.PCG
	// trials pools the Markov availability processes of model-driven runs.
	trials workload.TrialPool
	// vprocs/vps pool the replay processes of trace-driven runs.
	vprocs []avail.VectorProcess
	vps    []avail.Process
	// scheds pools one scheduler per heuristic name. Schedulers that opt
	// into cross-run reuse (sim.PoolSafe: the whole core registry) are
	// constructed once and reused, which amortizes their internal state —
	// notably the greedy family's incremental score caches — across every
	// run this Runner executes; their RNG is reseeded per run exactly as a
	// fresh construction would seed it, so results are bit-identical.
	// Schedulers that do not opt in are rebuilt per run, as before.
	scheds map[string]*pooledSched
}

// pooledSched is one slot of the Runner's scheduler pool. pcg is the
// scheduler's stream for the current run: it is owned by the pool so it can
// be reseeded in place (the scheduler holds a pointer to it).
type pooledSched struct {
	pcg   rng.PCG
	sched sim.Scheduler // non-nil once a pool-safe instance exists
}

// pooled returns (creating if needed) the pool slot for name.
func (r *Runner) pooled(name string) *pooledSched {
	if r.scheds == nil {
		r.scheds = make(map[string]*pooledSched)
	}
	ps := r.scheds[name]
	if ps == nil {
		ps = &pooledSched{}
		r.scheds[name] = ps
	}
	return ps
}

// instance returns the slot's scheduler, constructing one on first use and
// retaining it only when it declares cross-run reuse safe. The caller must
// seed ps.pcg for the run before the scheduler's first Pick (construction
// itself never draws).
func (ps *pooledSched) instance(name string) (sim.Scheduler, error) {
	if ps.sched != nil {
		return ps.sched, nil
	}
	s, err := core.New(name, &ps.pcg)
	if err != nil {
		return nil, err
	}
	if sim.PoolSafe(s) {
		ps.sched = s
	}
	return s, nil
}

// NewRunner returns a reusable Runner; its first run sizes the buffers.
func NewRunner() *Runner { return &Runner{} }

// RunSpec describes one simulation run on a Scenario. Every field but
// Heuristic has a usable zero value: trial seed 0, slot mode, a one-shot
// engine, the rigid application, Markov-drawn availability, no callbacks.
type RunSpec struct {
	// Heuristic names the scheduling heuristic (see Heuristics) or a batch
	// discipline (BatchFCFS, BatchEASY). A batch run rides the same clock on
	// the same trajectories; it rejects Alloc, Observer and OnEvent, and its
	// result carries no Stats.
	Heuristic string
	// TrialSeed determines the availability trajectories and any heuristic
	// randomness: the same (scenario, TrialSeed) pair confronts every
	// heuristic with the same world.
	TrialSeed uint64
	// Mode selects how availability is sampled (default ModeSlot). The
	// trial RNG discipline is identical in both modes, but event mode
	// consumes the per-processor streams at sojourn rather than slot
	// granularity, so Markov-driven results are distribution-equivalent,
	// not bit-identical, across modes.
	Mode Mode
	// Runner, when non-nil, recycles engine buffers, trial resources and
	// schedulers across runs; results are identical without one.
	Runner *Runner
	// Alloc, when non-nil, makes the application moldable: the policy
	// decides each iteration's task count at the iteration boundary, seeded
	// with the scenario's Tasks value as the natural shape, and the result's
	// IterationTasks records the counts. nil is the rigid model, which the
	// "fixed" policy reproduces bit for bit. Stateful policies reset at
	// every run boundary, so one instance may serve many sequential runs on
	// one goroutine.
	Alloc AllocationPolicy
	// Vectors, when non-nil, replaces the Markov trajectories with explicit
	// availability vectors (letters u/r/d, one string per processor; they
	// replay verbatim and then hold their last state). The informed
	// heuristics consult Markov models fitted to each vector, mirroring a
	// master that estimated behaviour from history; the fits are interned
	// per scenario, so repeated runs on the same vectors fit them once.
	// Trace replay consumes no RNG, so deterministic heuristics produce
	// bit-identical results in both modes.
	Vectors []string
	// Observer, when non-nil, receives the per-slot report.
	Observer func(*SlotReport)
	// OnEvent, when non-nil, receives every engine event (for timelines).
	OnEvent func(Event)
}

// Run executes the named heuristic on one trial of the scenario: RunWith
// with every other RunSpec field at its default.
func (s *Scenario) Run(heuristic string, trialSeed uint64) (*RunResult, error) {
	return s.RunWith(RunSpec{Heuristic: heuristic, TrialSeed: trialSeed})
}

// RunWith executes one run as spec describes.
func (s *Scenario) RunWith(spec RunSpec) (*RunResult, error) {
	var tm *traceModels
	if spec.Vectors != nil {
		var err error
		if tm, err = s.tracedModels(spec.Vectors); err != nil {
			return nil, err
		}
	}
	return s.run(spec, tm)
}

// run executes one run, on the Markov trajectories the trial seed denotes
// or, when tm is non-nil, on its replayed vectors and fitted models; a
// batch discipline name runs the batch engine on that world. A nil
// Runner gets a one-shot one: the pooled path consumes the RNG exactly as
// fresh construction would (Reseed mirrors New, TrialPool.Trial mirrors
// Trial, SplitInto mirrors Split), so reuse never changes a result.
func (s *Scenario) run(spec RunSpec, tm *traceModels) (*RunResult, error) {
	r := spec.Runner
	if r == nil {
		r = NewRunner()
	}
	if d, ok := disciplines[spec.Heuristic]; ok {
		// Batch jobs are rigid and the batch engine streams no slot reports
		// or events: these are errors rather than silently ignored.
		if spec.Alloc != nil || spec.Observer != nil || spec.OnEvent != nil {
			return nil, fmt.Errorf("volatile: %s: batch runs take no Alloc, Observer or OnEvent", spec.Heuristic)
		}
		pl, procs := s.world(r, spec.TrialSeed, tm)
		res, err := r.batch.Run(batch.Config{
			Platform: pl, Params: s.inner.Params, Procs: procs, Mode: spec.Mode, Discipline: d,
		})
		if err != nil {
			return nil, err
		}
		// Batch-specific counters live in batch.Result and are not carried
		// over: callers compare makespans uniformly.
		return &RunResult{Completed: res.Completed, Makespan: res.Makespan, IterationEnds: res.IterationEnds}, nil
	}
	ps := r.pooled(spec.Heuristic)
	sched, err := ps.instance(spec.Heuristic)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Params:    s.inner.Params,
		Scheduler: sched,
		Mode:      spec.Mode,
		Observer:  spec.Observer,
		OnEvent:   spec.OnEvent,
		Alloc:     spec.Alloc,
	}
	cfg.Platform, cfg.Procs = s.world(r, spec.TrialSeed, tm)
	if tm != nil {
		// Trace replay draws nothing, so the trial seed seeds the
		// scheduler's stream directly.
		ps.pcg.Reseed(spec.TrialSeed)
	} else {
		r.trialRng.SplitInto(&ps.pcg)
	}
	return r.r.Run(cfg)
}

// world returns the platform and availability processes of one run: tm's
// replayed vectors and fitted models when tm is non-nil, else the Markov
// trajectories trialSeed denotes, drawn on r's trial generator.
func (s *Scenario) world(r *Runner, trialSeed uint64, tm *traceModels) (*platform.Platform, []avail.Process) {
	if tm != nil {
		return tm.platform, r.vectorProcs(tm.vectors)
	}
	r.trialRng.Reseed(trialSeed)
	return s.inner.Platform, r.trials.Trial(s.inner, &r.trialRng)
}
