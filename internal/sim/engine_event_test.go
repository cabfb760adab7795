package sim_test

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// vectorScenarioConfig builds one random vector-driven scenario
// deterministically from seed, so the same (seed, heuristic) pair can be
// materialized once per mode with independent but identical availability
// processes and schedulers. With sojourn1, every vector changes state at
// every slot until the vector ends, so both modes queue a transition for
// every worker at every slot; MaxSlots stays below the vector length so
// runs never reach the hold-forever tail. Without sojourn1, the vectors
// carry multi-slot runs, so the two modes queue different wake-ups for the
// same states.
func vectorScenarioConfig(t *testing.T, seed uint64, heuristic string, sojourn1 bool) sim.Config {
	t.Helper()
	r := rng.New(seed)
	p := 2 + r.Intn(8)
	wmin := 1 + r.Intn(4)
	pl := platform.RandomPlatform(r, p, wmin)
	prm := platform.Params{
		M:           1 + r.Intn(8),
		Iterations:  1 + r.Intn(3),
		Ncom:        1 + r.Intn(p),
		Tprog:       r.Intn(12),
		Tdata:       r.Intn(4),
		MaxReplicas: r.Intn(3),
		MaxSlots:    600,
	}
	const vecLen = 900
	procs := make([]avail.Process, pl.P())
	for i := 0; i < pl.P(); i++ {
		v := make(avail.Vector, vecLen)
		if sojourn1 {
			v[0] = avail.State(r.Intn(3))
			for s := 1; s < vecLen; s++ {
				// Any state other than the previous one: every slot is a
				// transition for every worker.
				v[s] = (v[s-1] + 1 + avail.State(r.Intn(2))) % 3
			}
		} else {
			st := avail.State(r.Intn(3))
			for s := 0; s < vecLen; {
				run := 1 + r.Intn(40)
				for k := 0; k < run && s < vecLen; k++ {
					v[s] = st
					s++
				}
				st = (st + 1 + avail.State(r.Intn(2))) % 3
			}
		}
		procs[i] = avail.NewVectorProcess(v)
	}
	sched, err := core.New(heuristic, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{Platform: pl, Params: prm, Procs: procs, Scheduler: sched}
}

// modeRun is one run's result, event stream and per-slot observer reports,
// as runMode collects them for comparison.
type modeRun struct {
	res     *sim.Result
	events  []sim.Event
	reports []sim.SlotReport
}

func runMode(t *testing.T, runner *sim.Runner, cfg sim.Config, mode sim.Mode) modeRun {
	t.Helper()
	var out modeRun
	cfg.Mode = mode
	cfg.OnEvent = func(ev sim.Event) { out.events = append(out.events, ev) }
	cfg.Observer = func(rep *sim.SlotReport) { out.reports = append(out.reports, *rep) }
	res, err := runner.Run(cfg)
	if err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	out.res = res
	return out
}

// compareModes reports whether two runs match bit for bit, logging the
// first difference between a and b.
func compareModes(t *testing.T, seed uint64, h string, a, b modeRun) bool {
	t.Helper()
	if !reflect.DeepEqual(a.res, b.res) {
		t.Logf("seed %d %s: results differ: %+v vs %+v", seed, h, a.res, b.res)
		return false
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Logf("seed %d %s: event streams differ (%d vs %d events)", seed, h, len(a.events), len(b.events))
		return false
	}
	if !reflect.DeepEqual(a.reports, b.reports) {
		t.Logf("seed %d %s: observer reports differ (%d vs %d reports)", seed, h, len(a.reports), len(b.reports))
		return false
	}
	return true
}

// TestEventModeBitIdenticalSojourn1 pins the strongest cross-mode contract:
// on availability vectors whose state changes at every slot, both modes
// apply the identical per-slot transitions, so every heuristic — including
// the RNG-consuming random family — must reproduce slot mode bit for bit:
// same result, same event stream, same observer reports.
func TestEventModeBitIdenticalSojourn1(t *testing.T) {
	names := append(core.Names(),
		"passive-emct", "passive-mct", "proactive-emct", "proactive-mct",
		"remct", "deadline")
	slotRunner := sim.NewRunner()
	eventRunner := sim.NewRunner()
	eventRunner.EnableSlowChecks()

	f := func(seed uint64, pickH uint8) bool {
		h := names[int(pickH)%len(names)]
		slot := runMode(t, slotRunner, vectorScenarioConfig(t, seed, h, true), sim.ModeSlot)
		event := runMode(t, eventRunner, vectorScenarioConfig(t, seed, h, true), sim.ModeEvent)
		return compareModes(t, seed, h, slot, event)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEventModeBitIdenticalDeterministic runs the deterministic heuristics —
// the greedy family, the incremental/deadline variants and the passive and
// proactive wrappers — on vectors with multi-slot runs, where slot mode's
// sampler wakes the clock on its doubling schedule and event mode at each
// sojourn end. Recorded vectors consume no RNG, so the two samplers yield
// identical states and all must match bit for bit while both engines run
// with the slow-check oracles armed.
func TestEventModeBitIdenticalDeterministic(t *testing.T) {
	names := append(core.GreedyNames(),
		"remct", "deadline",
		"passive-emct", "passive-mct", "passive-ud",
		"proactive-emct", "proactive-mct")
	slotRunner := sim.NewRunner()
	slotRunner.EnableSlowChecks()
	eventRunner := sim.NewRunner()
	eventRunner.EnableSlowChecks()

	f := func(seed uint64, pickH uint8) bool {
		h := names[int(pickH)%len(names)]
		slot := runMode(t, slotRunner, vectorScenarioConfig(t, seed, h, false), sim.ModeSlot)
		event := runMode(t, eventRunner, vectorScenarioConfig(t, seed, h, false), sim.ModeEvent)
		return compareModes(t, seed, h, slot, event)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEventModeMarkovSelfConsistent runs Markov-driven scenarios (the
// sojourn-sampled trajectory path) through event mode twice — once with the
// slow-check oracles armed, once plain — and requires identical results and
// event streams. This pins the trajectory-driven clock against the
// full-rebuild references on the availability class the sweeps actually
// use, where slot mode is only distribution-equivalent, not bit-identical.
func TestEventModeMarkovSelfConsistent(t *testing.T) {
	names := append(core.Names(),
		"passive-emct", "proactive-emct", "remct", "deadline")
	checked := sim.NewRunner()
	checked.EnableSlowChecks()
	plain := sim.NewRunner()

	f := func(seed uint64, pickH uint8) bool {
		h := names[int(pickH)%len(names)]
		a := runMode(t, checked, randomScenarioConfig(t, seed, h), sim.ModeEvent)
		b := runMode(t, plain, randomScenarioConfig(t, seed, h), sim.ModeEvent)
		return compareModes(t, seed, h, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// slotOnlyProc is an availability process without a trajectory view.
type slotOnlyProc struct{}

func (slotOnlyProc) Next() avail.State { return avail.Up }

// TestEventModeRequiresTrajectory pins the validation error: event mode
// must reject processes that cannot report sojourn transitions.
func TestEventModeRequiresTrajectory(t *testing.T) {
	cfg := randomScenarioConfig(t, 7, "emct")
	cfg.Procs[0] = slotOnlyProc{}
	cfg.Mode = sim.ModeEvent
	if _, err := sim.Run(cfg); err == nil || !strings.Contains(err.Error(), "avail.Trajectory") {
		t.Fatalf("want trajectory validation error, got %v", err)
	}
	cfg.Mode = sim.ModeSlot
	if _, err := sim.Run(cfg); err != nil {
		t.Fatalf("slot mode should accept slot-only processes: %v", err)
	}
}

// TestParseMode pins the mode name surface: round-trips, the fail-fast
// error listing valid names, and rejection of undefined Config modes.
func TestParseMode(t *testing.T) {
	for _, want := range []sim.Mode{sim.ModeSlot, sim.ModeEvent} {
		got, err := avail.ParseMode(want.String())
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", want.String(), got, err, want)
		}
	}
	if names := avail.ModeNames(); !reflect.DeepEqual(names, []string{"slot", "event"}) {
		t.Fatalf("ModeNames() = %v", names)
	}
	_, err := avail.ParseMode("bogus")
	if err == nil || !strings.Contains(err.Error(), "slot") || !strings.Contains(err.Error(), "event") {
		t.Fatalf("ParseMode(bogus) error should list valid names, got %v", err)
	}
	cfg := randomScenarioConfig(t, 11, "emct")
	cfg.Mode = sim.Mode(9)
	if _, err := sim.Run(cfg); err == nil || !strings.Contains(err.Error(), "invalid mode") {
		t.Fatalf("want invalid-mode error, got %v", err)
	}
}
