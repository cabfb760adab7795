package volatile

// DFRS-style experiments: the batch-scheduling baselines of internal/batch
// run head-to-head against the paper's fractional heuristics ("Dynamic
// Fractional Resource Scheduling vs. Batch Scheduling", Casanova, Stillwell,
// Vivien). A batch discipline name is a RunSpec.Heuristic like any other:
// its runs ride the same availability clock, in the same Mode, on the same
// trajectories. A sweep with a CompareSource confronts, per instance, every
// fractional heuristic AND every batch discipline with that one world, so
// the dfb metric directly prices batch allocation against fine-grained
// scheduling; BatchSweep ranks the batch disciplines alone. Both run
// through runSharded, so results are bit-identical for every worker count.

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

// disciplines resolves the batch discipline names.
var disciplines = map[string]batch.Discipline{BatchFCFS: batch.FCFS, BatchEASY: batch.EASY}

// CompareSource adds batch contenders to a Markov sweep: every instance
// first runs each fractional heuristic, then each batch discipline, all on
// the same availability trajectories in the sweep's Mode (the trial seed
// re-materializes the same world for every contender), so the
// per-instance best — and with it each row's dfb — is taken over the union
// of both scheduler families. Batch jobs are rigid and never replicated:
// the sweep's Alloc and Options.MaxReplicas apply to the fractional side
// only.
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
		if _, ok := disciplines[name]; !ok {
			return sourcePlan{}, fmt.Errorf("volatile: unknown batch discipline %q (want %q or %q)",
				name, BatchFCFS, BatchEASY)
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
			if _, isBatch := disciplines[r.Name]; isBatch {
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
