package batch_test

import (
	"testing"
	"testing/quick"

	"repro/internal/avail"
	"repro/internal/batch"
	"repro/internal/platform"
	"repro/internal/rng"
)

// invariantChecker verifies, slot by slot, the reservation contract of the
// batch engine:
//
//   - exclusivity: no two jobs ever share a worker, and a job ID, once
//     bound to a worker, stays on that worker for its whole life (kills
//     resubmit under a fresh ID, so any ID maps to exactly one worker);
//   - capacity: running jobs never exceed the worker count, active
//     transfers never exceed ncom (nor the number of transferring jobs);
//   - conservation: live jobs (running + queued) never exceed m, and job
//     IDs only ever increase (FIFO submission order).
type invariantChecker struct {
	t       *testing.T
	seed    uint64
	d       batch.Discipline
	prm     platform.Params
	p       int
	idOwner map[int]int // job ID -> worker it was bound to
	maxID   int
	failed  bool
}

func (c *invariantChecker) errorf(format string, args ...any) {
	c.failed = true
	c.t.Errorf("seed %d %v: %s", c.seed, c.d, c.t.Name())
	c.t.Errorf(format, args...)
}

func (c *invariantChecker) observe(r *batch.SlotReport) {
	if len(r.Running) > c.p {
		c.errorf("slot %d: %d running jobs on %d workers", r.Slot, len(r.Running), c.p)
	}
	seenWorker := make(map[int]int, len(r.Running))
	for _, j := range r.Running {
		if prev, dup := seenWorker[j.Worker]; dup {
			c.errorf("slot %d: worker %d holds jobs %d and %d", r.Slot, j.Worker, prev, j.ID)
		}
		seenWorker[j.Worker] = j.ID
		if owner, ok := c.idOwner[j.ID]; ok {
			if owner != j.Worker {
				c.errorf("slot %d: job %d migrated from worker %d to %d",
					r.Slot, j.ID, owner, j.Worker)
			}
		} else {
			c.idOwner[j.ID] = j.Worker
			if j.ID > c.maxID {
				c.maxID = j.ID
			}
		}
	}
	if r.ActiveTransfers > c.prm.Ncom {
		c.errorf("slot %d: %d active transfers exceed ncom=%d", r.Slot, r.ActiveTransfers, c.prm.Ncom)
	}
	// A job that received its last transfer unit this slot reports
	// Transferring=false yet used a channel, so bound by running jobs, not
	// by the still-transferring count.
	if r.ActiveTransfers > len(r.Running) {
		c.errorf("slot %d: %d active transfers but only %d running jobs",
			r.Slot, r.ActiveTransfers, len(r.Running))
	}
	if live := len(r.Running) + r.QueueLen; live > c.prm.M {
		c.errorf("slot %d: %d live jobs exceed m=%d", r.Slot, live, c.prm.M)
	}
}

// runChecked runs one random scenario under the invariant checker and
// verifies the end-of-run accounting identities.
func runChecked(t *testing.T, seed uint64, d batch.Discipline) bool {
	t.Helper()
	r := rng.New(seed)
	p := 2 + r.Intn(8)
	wmin := 1 + r.Intn(4)
	pl := platform.RandomPlatform(r, p, wmin)
	prm := platform.Params{
		M:          1 + r.Intn(8),
		Iterations: 1 + r.Intn(3),
		Ncom:       1 + r.Intn(p),
		Tprog:      r.Intn(12),
		Tdata:      r.Intn(4),
		MaxSlots:   300000,
	}
	procs := make([]avail.Process, pl.P())
	for i, proc := range pl.Processors {
		procs[i] = proc.Avail.NewProcess(r.Split(), proc.Avail.SampleStationary(r))
	}
	chk := &invariantChecker{t: t, seed: seed, d: d, prm: prm, p: p, idOwner: make(map[int]int)}
	res, err := batch.Run(batch.Config{
		Platform: pl, Params: prm, Procs: procs, Discipline: d, Observer: chk.observe,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats

	// Every dispatch ends in a completion or a kill; censored runs may
	// leave jobs running at the cap.
	ends := st.TasksCompleted + st.Kills
	if res.Completed {
		if st.JobsDispatched != ends {
			chk.errorf("dispatches %d != completions %d + kills %d",
				st.JobsDispatched, st.TasksCompleted, st.Kills)
		}
		if st.TasksCompleted != prm.M*prm.Iterations {
			chk.errorf("completed run finished %d tasks, want %d",
				st.TasksCompleted, prm.M*prm.Iterations)
		}
		if len(res.IterationEnds) != prm.Iterations {
			chk.errorf("completed run recorded %d iteration ends, want %d",
				len(res.IterationEnds), prm.Iterations)
		}
	} else if st.JobsDispatched < ends || st.JobsDispatched > ends+p {
		chk.errorf("censored run: dispatches %d outside [%d, %d]", st.JobsDispatched, ends, ends+p)
	}
	if d == batch.FCFS && st.Backfills != 0 {
		chk.errorf("FCFS backfilled %d jobs", st.Backfills)
	}
	for i := 1; i < len(res.IterationEnds); i++ {
		if res.IterationEnds[i] <= res.IterationEnds[i-1] {
			chk.errorf("iteration ends not increasing: %v", res.IterationEnds)
		}
	}
	return !chk.failed
}

// TestInvariantsRandomScenarios sweeps random scenarios through both
// disciplines under the per-slot invariant checker, the batch engine's
// analogue of the fractional engine's TestIncrementalMatchesFullRebuild
// oracle runs.
func TestInvariantsRandomScenarios(t *testing.T) {
	for _, d := range []batch.Discipline{batch.FCFS, batch.EASY} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			f := func(seed uint64) bool { return runChecked(t, seed, d) }
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeterminism pins that identical configurations (fresh trajectory
// processes, same seeds) reproduce identical results — the property the
// sweep layer's worker-count determinism is built on.
func TestDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, d := range []batch.Discipline{batch.FCFS, batch.EASY} {
			mk := func() *batch.Result {
				r := rng.New(seed)
				pl := platform.RandomPlatform(r, 4, 2)
				prm := platform.Params{M: 5, Iterations: 2, Ncom: 2, Tprog: 6, Tdata: 2, MaxSlots: 300000}
				procs := make([]avail.Process, pl.P())
				for i, proc := range pl.Processors {
					procs[i] = proc.Avail.NewProcess(r.Split(), proc.Avail.SampleStationary(r))
				}
				res, err := batch.Run(batch.Config{Platform: pl, Params: prm, Procs: procs, Discipline: d})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := mk(), mk()
			if a.Makespan != b.Makespan || a.Stats != b.Stats {
				t.Errorf("seed %d %v: reruns diverged: %+v vs %+v", seed, d, a, b)
			}
		}
	}
}
