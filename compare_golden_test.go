package volatile

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/avail"
)

// goldenCompareDigest pins the exact numeric output of the fixed-seed DFRS
// comparison sweep below (fractional heuristics vs batch disciplines on
// identical instances). Any drift means the batch engine, the shared trial
// materialization or the sharded merge changed behaviour.
const goldenCompareDigest = "ed7e1e6882e7a3470b1249783cf61d9886139343a8cdaa57782143f04e74d3ac"

// goldenBatchDigest pins the batch-only sweep (BatchSweep) on the same
// grid: FCFS vs EASY with no fractional contenders.
const goldenBatchDigest = "854bb0b0dd0343bd1fbc760364ac95a5d87d83a9d18618ffc33912bbe259c0bf"

var goldenDisciplines = []string{BatchFCFS, BatchEASY}

func goldenCompareConfig() SweepConfig {
	return SweepConfig{
		Cells: []Cell{
			{Tasks: 5, Ncom: 5, Wmin: 1},
			{Tasks: 10, Ncom: 5, Wmin: 3},
			{Tasks: 20, Ncom: 10, Wmin: 5},
		},
		Heuristics: []string{"emct*", "mct", "random2w"},
		Source:     CompareSource{Disciplines: goldenDisciplines},
		Scenarios:  2,
		Trials:     2,
		Options:    ScenarioOptions{Processors: 8, Iterations: 3},
		Seed:       77,
	}
}

// TestCompareSweepGolden locks the DFRS comparison's numeric output, the
// batch-engine analogue of TestRunSweepGolden.
func TestCompareSweepGolden(t *testing.T) {
	res, err := RunSweep(goldenCompareConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := formatSweep(res)
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != goldenCompareDigest {
		t.Errorf("compare digest drifted:\n got  %s\n want %s\noutput:\n%s", got, goldenCompareDigest, text)
	}
}

// TestCompareSweepWorkerCountDeterminism extends the worker-count property
// to the comparison pipeline: fractional and batch runs of one instance
// execute on the same worker, shards merge in chunk order, so any worker
// count reproduces the golden digest bit for bit.
func TestCompareSweepWorkerCountDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := goldenCompareConfig()
		cfg.Workers = workers
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(formatSweep(res)))
		if got := hex.EncodeToString(sum[:]); got != goldenCompareDigest {
			t.Errorf("workers=%d drifted from the golden compare digest:\n got  %s\n want %s",
				workers, got, goldenCompareDigest)
		}
	}
}

// TestBatchSweepWorkerCountDeterminism is the same property for the
// batch-only sweep, pinned by its own golden digest.
func TestBatchSweepWorkerCountDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := goldenCompareConfig()
		cfg.Heuristics = nil // ignored by BatchSweep
		cfg.Workers = workers
		res, err := BatchSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances == 0 {
			t.Fatal("batch sweep aggregated no instances")
		}
		sum := sha256.Sum256([]byte(formatSweep(res)))
		if got := hex.EncodeToString(sum[:]); got != goldenBatchDigest {
			t.Errorf("workers=%d drifted from the golden batch digest:\n got  %s\n want %s\noutput:\n%s",
				workers, got, goldenBatchDigest, formatSweep(res))
		}
	}
}

// TestCompareSweepRowsCoverBothFamilies checks the result surface: every
// configured contender appears in the overall ranking, and CompareCells
// produces one row per cell with both family winners filled in.
func TestCompareSweepRowsCoverBothFamilies(t *testing.T) {
	cfg := goldenCompareConfig()
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]string{}, cfg.Heuristics...), goldenDisciplines...)
	seen := make(map[string]bool, len(res.Overall))
	for _, r := range res.Overall {
		seen[r.Name] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("overall ranking is missing %q", name)
		}
	}
	rows := CompareCells(res)
	if len(rows) != len(cfg.Cells) {
		t.Fatalf("CompareCells returned %d rows for %d cells", len(rows), len(cfg.Cells))
	}
	for _, row := range rows {
		if row.BestFractional == "" || row.BestBatch == "" {
			t.Errorf("cell %s: missing family winner: %+v", row.Cell, row)
			continue
		}
		if math.IsNaN(row.FractionalDFB) || math.IsNaN(row.BatchDFB) {
			t.Errorf("cell %s: NaN dfb for a populated family: %+v", row.Cell, row)
		}
		if row.Gap != row.BatchDFB-row.FractionalDFB {
			t.Errorf("cell %s: gap %v != %v - %v", row.Cell, row.Gap, row.BatchDFB, row.FractionalDFB)
		}
	}
}

// TestCompareSweepValidation exercises the fail-fast paths.
func TestCompareSweepValidation(t *testing.T) {
	base := goldenCompareConfig()

	bad := base
	bad.Source = CompareSource{Disciplines: []string{"batch-sjf"}}
	if _, err := RunSweep(bad); err == nil {
		t.Error("unknown discipline accepted")
	}
	if _, err := BatchSweep(bad); err == nil {
		t.Error("BatchSweep accepted unknown discipline")
	}
	bad.Source = TraceSource{}
	if _, err := BatchSweep(bad); err == nil {
		t.Error("BatchSweep accepted a trace source")
	}

	bad = base
	bad.Heuristics = []string{"no-such-heuristic"}
	if _, err := RunSweep(bad); err == nil {
		t.Error("unknown heuristic accepted")
	}

	bad = base
	bad.Cells = nil
	if _, err := BatchSweep(bad); err == nil {
		t.Error("BatchSweep accepted empty cells")
	}

	bad = base
	bad.Trials = 0
	if _, err := BatchSweep(bad); err == nil {
		t.Error("BatchSweep accepted zero trials")
	}

	if _, err := (&Scenario{}).Run("batch-sjf", 1); err == nil {
		t.Error("Run accepted unknown discipline")
	}
	scn := NewScenario(5, Cell{Tasks: 5, Ncom: 5, Wmin: 1}, ScenarioOptions{Processors: 4, Iterations: 1})
	pol, err := ParseAllocPolicy("maximum-iters")
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]RunSpec{
		"Alloc":    {Alloc: pol},
		"Observer": {Observer: func(*SlotReport) {}},
		"OnEvent":  {OnEvent: func(Event) {}},
	} {
		spec.Heuristic = BatchEASY
		if _, err := scn.RunWith(spec); err == nil {
			t.Errorf("batch run accepted %s", name)
		}
	}
}

// TestRunBatchMatchesCompareSweepWorld pins that a single batch run through
// RunWith sees the same world as a comparison-sweep instance of the same
// Mode: same scenario seed + trial seed → the batch dfb the sweep recorded.
func TestRunBatchMatchesCompareSweepWorld(t *testing.T) {
	cell := Cell{Tasks: 5, Ncom: 5, Wmin: 2}
	opt := ScenarioOptions{Processors: 6, Iterations: 2}
	seed := uint64(99)
	scn := NewScenario(deriveSeed(seed, 0, 0, 0xA11CE), cell, opt)
	trialSeed := deriveSeed(seed, 0, 0, 0)

	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		res, err := RunSweep(SweepConfig{
			Cells: []Cell{cell}, Heuristics: []string{"mct"}, Scenarios: 1, Trials: 1,
			Options: opt, Mode: mode, Seed: seed, Source: CompareSource{},
		})
		if err != nil {
			t.Fatal(err)
		}
		makespans := make(map[string]int)
		for _, name := range append([]string{"mct"}, BatchDisciplines()...) {
			r, err := scn.RunWith(RunSpec{Heuristic: name, TrialSeed: trialSeed, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if r.Makespan <= 0 {
				t.Fatalf("%v %s: non-positive makespan %d", mode, name, r.Makespan)
			}
			makespans[name] = r.Makespan
		}
		// The sweep's per-instance makespans are folded into dfb, so verify
		// through the overall ranking: recompute this single instance's dfb
		// from the direct runs and compare.
		checkBatchDFB(t, mode, res, makespans)
	}
}

// checkBatchDFB requires each batch discipline's dfb in a one-instance
// sweep result to equal the dfb recomputed from the given makespans of all
// the instance's contenders.
func checkBatchDFB(t *testing.T, mode Mode, res *SweepResult, makespans map[string]int) {
	t.Helper()
	best := math.MaxInt
	for _, m := range makespans {
		best = min(best, m)
	}
	for _, d := range BatchDisciplines() {
		want := 100 * float64(makespans[d]-best) / float64(best)
		got, ok := rowValue(res.Overall, d)
		if !ok {
			t.Fatalf("%v: %s missing from sweep ranking", mode, d)
		}
		if got != want {
			t.Errorf("%v %s: sweep dfb %v != direct-run dfb %v", mode, d, got, want)
		}
	}
}

// TestEventCompareSweepPairsBatchWorld pins that an event-mode comparison
// sweep confronts the batch disciplines with the heuristics' world: the
// trial's event-mode trajectories, expanded to per-slot vectors and
// replayed through RunSpec.Vectors in slot mode, reproduce the sweep's
// batch dfb exactly. A batch engine sampling its own per-slot trajectories
// would face a different world and miss it.
func TestEventCompareSweepPairsBatchWorld(t *testing.T) {
	cell := Cell{Tasks: 5, Ncom: 5, Wmin: 2}
	opt := ScenarioOptions{Processors: 6, Iterations: 2}
	seed := uint64(99)
	res, err := RunSweep(SweepConfig{
		Cells: []Cell{cell}, Heuristics: []string{"mct"}, Scenarios: 1, Trials: 1,
		Options: opt, Mode: ModeEvent, Seed: seed, Source: CompareSource{},
	})
	if err != nil {
		t.Fatal(err)
	}
	scn := NewScenario(deriveSeed(seed, 0, 0, 0xA11CE), cell, opt)
	trialSeed := deriveSeed(seed, 0, 0, 0)

	// Expand the trial's sojourns into per-slot vectors. Replayed vectors
	// hold their last state, so every replayed run must end before the
	// horizon for the replay to be the same world.
	const horizon = 5000
	_, procs := scn.world(NewRunner(), trialSeed, nil)
	vectors := make([]string, len(procs))
	for i, p := range procs {
		tr := p.(avail.Trajectory)
		v := make(avail.Vector, horizon)
		s, _ := tr.NextTransition()
		next, at := tr.NextTransition()
		for k := range v {
			if k == at {
				s = next
				next, at = tr.NextTransition()
			}
			v[k] = s
		}
		vectors[i] = v.String()
	}

	mct, err := scn.RunWith(RunSpec{Heuristic: "mct", TrialSeed: trialSeed, Mode: ModeEvent})
	if err != nil {
		t.Fatal(err)
	}
	makespans := map[string]int{"mct": mct.Makespan}
	for _, d := range BatchDisciplines() {
		r, err := scn.RunWith(RunSpec{Heuristic: d, TrialSeed: trialSeed, Vectors: vectors})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed || r.Makespan >= horizon {
			t.Fatalf("%s: replay ran %d slots, past the %d-slot vectors", d, r.Makespan, horizon)
		}
		makespans[d] = r.Makespan
	}
	checkBatchDFB(t, ModeEvent, res, makespans)
}
