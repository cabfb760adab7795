package volatile

// DFRS-style experiments: the batch-scheduling baselines of internal/batch
// run head-to-head against the paper's fractional heuristics ("Dynamic
// Fractional Resource Scheduling vs. Batch Scheduling", Casanova, Stillwell,
// Vivien). A sweep with a CompareSource confronts, per instance, every
// fractional heuristic AND every batch discipline with the same
// availability trajectories, so the dfb metric directly prices batch
// allocation against fine-grained scheduling; BatchSweep ranks the batch
// disciplines alone. Both run through runSharded, so results are
// bit-identical for every worker count.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/batch"
)

// Batch discipline names. They appear as row names in sweep results,
// alongside the heuristic names they are compared against.
const (
	// BatchFCFS is strict-order batch dispatch (head-of-line blocking).
	BatchFCFS = "batch-fcfs"
	// BatchEASY is FCFS dispatch plus EASY backfilling.
	BatchEASY = "batch-easy"
)

// BatchDisciplines lists every implemented batch discipline name.
func BatchDisciplines() []string { return []string{BatchFCFS, BatchEASY} }

// parseDiscipline resolves a discipline name.
func parseDiscipline(name string) (batch.Discipline, error) {
	switch name {
	case BatchFCFS:
		return batch.FCFS, nil
	case BatchEASY:
		return batch.EASY, nil
	}
	return 0, fmt.Errorf("volatile: unknown batch discipline %q (want %q or %q)",
		name, BatchFCFS, BatchEASY)
}

// CompareSource adds batch contenders to a Markov sweep: every instance
// first runs each fractional heuristic, then each batch discipline, all on
// the same availability trajectories (the trial seed re-materializes the
// same world for every contender), so the per-instance best — and with it
// each row's dfb — is taken over the union of both scheduler families.
// The batch side always runs its own slot-exact simulator: the sweep's
// Mode and Alloc apply to the fractional side only, and batch jobs are
// never replicated (Options.MaxReplicas).
type CompareSource struct {
	// Disciplines are the batch discipline names (default: both).
	Disciplines []string
}

// resolve validates the discipline list; the names ride along as digest
// extras.
func (src CompareSource) resolve(*SweepConfig) (sourcePlan, error) {
	names := src.Disciplines
	if len(names) == 0 {
		names = BatchDisciplines()
	}
	extras := make([]string, len(names))
	for i, name := range names {
		if _, err := parseDiscipline(name); err != nil {
			return sourcePlan{}, err
		}
		extras[i] = "discipline " + name
	}
	return sourcePlan{flavour: "comparesweep", extras: extras, disciplines: names}, nil
}

// BatchSweep ranks the batch disciplines alone: the sweep cfg describes
// with no fractional contenders (cfg.Heuristics is ignored). cfg.Source
// must be a CompareSource or nil (both disciplines). Use it to study
// FCFS-vs-EASY head to head before pricing both against the paper's
// heuristics. It is a distinct sweep from the comparison: its empty
// heuristic list gives it its own config digest.
func BatchSweep(cfg SweepConfig) (*SweepResult, error) {
	if err := validateSweepShape(cfg.Cells, cfg.Scenarios, cfg.Trials); err != nil {
		return nil, err
	}
	src, ok := cfg.Source.(CompareSource)
	if !ok && cfg.Source != nil {
		return nil, fmt.Errorf("volatile: BatchSweep needs a CompareSource (got %T)", cfg.Source)
	}
	cfg.Source = src
	p, err := cfg.planWith(nil)
	if err != nil {
		return nil, err
	}
	return runSharded(cfg, p)
}

// runBatch executes one batch run on the trajectories the given trial seed
// denotes — the same world every fractional heuristic of that (scenario,
// trial) instance faces — on the Runner's pooled trial resources and batch
// engine.
func (s *Scenario) runBatch(rn *Runner, discipline string, trialSeed uint64) (*batch.Result, error) {
	d, err := parseDiscipline(discipline)
	if err != nil {
		return nil, err
	}
	rn.trialRng.Reseed(trialSeed)
	procs := rn.trials.Trial(s.inner, &rn.trialRng)
	return rn.batch.Run(batch.Config{
		Platform:   s.inner.Platform,
		Params:     s.inner.Params,
		Procs:      procs,
		Discipline: d,
	})
}

// RunBatch executes one batch-discipline run on the scenario (name:
// BatchFCFS or BatchEASY) against the same world the fractional
// heuristics see for this trial seed — the single-run counterpart of a
// CompareSource sweep, for walkthroughs and spot checks.
func (s *Scenario) RunBatch(discipline string, trialSeed uint64) (*RunResult, error) {
	res, err := s.runBatch(NewRunner(), discipline, trialSeed)
	if err != nil {
		return nil, err
	}
	// Surface the batch outcome through the common RunResult shape so
	// callers compare makespans uniformly; batch-specific counters live in
	// batch.Result and are not carried over.
	return &RunResult{
		Completed:     res.Completed,
		Makespan:      res.Makespan,
		IterationEnds: res.IterationEnds,
	}, nil
}

// CompareCellRow is one grid cell of a batch-vs-fractional report: the best
// average dfb achieved by each family in that cell and the gap between
// them (positive gap = batch trails fractional).
type CompareCellRow struct {
	// Cell is the grid cell.
	Cell Cell
	// BestFractional / BestBatch name the family winners in this cell.
	BestFractional, BestBatch string
	// FractionalDFB / BatchDFB are the winners' average dfb (percent,
	// against the per-instance best over BOTH families). NaN when the
	// family has no rows in the cell.
	FractionalDFB, BatchDFB float64
	// Gap is BatchDFB − FractionalDFB.
	Gap float64
}

// CompareCells condenses a CompareSource sweep result into per-cell
// batch-vs-fractional columns: for every cell, the best fractional row
// versus the best batch row. Cells are ordered by (Tasks, Ncom, Wmin).
func CompareCells(res *SweepResult) []CompareCellRow {
	isBatch := func(name string) bool {
		_, err := parseDiscipline(name)
		return err == nil
	}
	cells := make([]Cell, 0, len(res.ByCell))
	for c := range res.ByCell {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Tasks != cells[j].Tasks {
			return cells[i].Tasks < cells[j].Tasks
		}
		if cells[i].Ncom != cells[j].Ncom {
			return cells[i].Ncom < cells[j].Ncom
		}
		return cells[i].Wmin < cells[j].Wmin
	})
	out := make([]CompareCellRow, 0, len(cells))
	for _, c := range cells {
		row := CompareCellRow{Cell: c, FractionalDFB: math.NaN(), BatchDFB: math.NaN()}
		// Rows are sorted by ascending dfb, so the first hit per family is
		// that family's winner.
		for _, r := range res.ByCell[c] {
			if isBatch(r.Name) {
				if row.BestBatch == "" {
					row.BestBatch, row.BatchDFB = r.Name, r.AvgDFB
				}
			} else if row.BestFractional == "" {
				row.BestFractional, row.FractionalDFB = r.Name, r.AvgDFB
			}
		}
		row.Gap = row.BatchDFB - row.FractionalDFB
		out = append(out, row)
	}
	return out
}
