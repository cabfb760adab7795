package batch_test

import (
	"strings"
	"testing"

	"repro/internal/avail"
	"repro/internal/batch"
	"repro/internal/platform"
	"repro/internal/rng"
)

// alwaysUp returns a platform of the given speeds plus always-UP replay
// processes (the Markov models attached are irrelevant to the batch
// scheduler but required by platform validation).
func alwaysUp(t *testing.T, speeds ...int) (*platform.Platform, []avail.Process) {
	t.Helper()
	return replay(t, speeds, func(int) string { return "u" })
}

// replay builds a platform with the given speeds and per-worker replay
// vectors (a vector holds its last state past its end).
func replay(t *testing.T, speeds []int, vec func(worker int) string) (*platform.Platform, []avail.Process) {
	t.Helper()
	m := avail.RandomMarkov3(rng.New(1))
	procs := make([]*platform.Processor, len(speeds))
	ps := make([]avail.Process, len(speeds))
	for i, w := range speeds {
		procs[i] = &platform.Processor{ID: i, W: w, Avail: m}
		v, err := avail.ParseVector(vec(i))
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = avail.NewVectorProcess(v)
	}
	return &platform.Platform{Processors: procs}, ps
}

func run(t *testing.T, pl *platform.Platform, procs []avail.Process, prm platform.Params, d batch.Discipline) *batch.Result {
	t.Helper()
	res, err := batch.Run(batch.Config{Platform: pl, Params: prm, Procs: procs, Discipline: d})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSingleJobSingleWorker pins the service model: program + data +
// compute, one slot each phase, no contention.
func TestSingleJobSingleWorker(t *testing.T) {
	pl, procs := alwaysUp(t, 3)
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 2, Tdata: 1}
	res := run(t, pl, procs, prm, batch.FCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	// Dispatch at slot 0; 2 program + 1 data slots, then 3 compute slots.
	if want := 6; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
	if res.Stats.ChannelSlots != 3 || res.Stats.ComputeSlots != 3 {
		t.Errorf("channel/compute slots = %d/%d, want 3/3",
			res.Stats.ChannelSlots, res.Stats.ComputeSlots)
	}
}

// TestProgramPersistsAcrossIterations pins that the program is sent once
// per worker (absent crashes) while data is re-sent per task.
func TestProgramPersistsAcrossIterations(t *testing.T) {
	pl, procs := alwaysUp(t, 2)
	prm := platform.Params{M: 1, Iterations: 3, Ncom: 1, Tprog: 4, Tdata: 1}
	res := run(t, pl, procs, prm, batch.FCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	// Iteration 1: 4 prog + 1 data + 2 compute = 7; iterations 2, 3: 1 data
	// + 2 compute = 3 each.
	if want := 13; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
	if want := int64(4 + 3*1); res.Stats.ChannelSlots != want {
		t.Errorf("channel slots = %d, want %d", res.Stats.ChannelSlots, want)
	}
}

// TestHeadOfLineBlockingVsBackfill is the canonical FCFS-vs-EASY split: a
// fast and a slow worker, many short jobs. FCFS's head always prefers
// waiting for the fast worker (smaller estimated completion), so the slow
// worker idles; EASY backfills it.
func TestHeadOfLineBlockingVsBackfill(t *testing.T) {
	prm := platform.Params{M: 10, Iterations: 1, Ncom: 2, Tprog: 0, Tdata: 0}
	plF, procsF := alwaysUp(t, 1, 3)
	fcfs := run(t, plF, procsF, prm, batch.FCFS)
	plE, procsE := alwaysUp(t, 1, 3)
	easy := run(t, plE, procsE, prm, batch.EASY)
	if !fcfs.Completed || !easy.Completed {
		t.Fatal("runs did not complete")
	}
	if fcfs.Stats.Backfills != 0 {
		t.Errorf("FCFS backfilled %d jobs", fcfs.Stats.Backfills)
	}
	if easy.Stats.Backfills == 0 {
		t.Error("EASY never backfilled")
	}
	if easy.Makespan >= fcfs.Makespan {
		t.Errorf("EASY makespan %d not better than FCFS %d", easy.Makespan, fcfs.Makespan)
	}
}

// TestKillAndRequeue pins the failure path: a crash mid-service kills the
// job, wipes the program, and resubmits the task, which then runs again
// from scratch.
func TestKillAndRequeue(t *testing.T) {
	speeds := []int{2}
	// UP for 3 slots (program 1 + data 1 + compute 1 of 2), DOWN 1 slot
	// (kill), then UP forever.
	pl, procs := replay(t, speeds, func(int) string { return "uuud" + strings.Repeat("u", 50) })
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 1, Tdata: 1}
	res := run(t, pl, procs, prm, batch.FCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Stats.Kills != 1 {
		t.Errorf("kills = %d, want 1", res.Stats.Kills)
	}
	if res.Stats.JobsDispatched != 2 {
		t.Errorf("dispatches = %d, want 2", res.Stats.JobsDispatched)
	}
	// Slot 3 is DOWN (kill); redispatch at slot 4: 1 prog + 1 data + 2
	// compute → completes at slot 7, makespan 8.
	if want := 8; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
}

// TestReclaimedSuspends pins that RECLAIMED pauses a job without killing
// it: the reservation holds, progress resumes when the worker returns UP.
func TestReclaimedSuspends(t *testing.T) {
	pl, procs := replay(t, []int{2}, func(int) string { return "urru" + strings.Repeat("u", 50) })
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 1}
	res := run(t, pl, procs, prm, batch.FCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Stats.Kills != 0 {
		t.Errorf("kills = %d, want 0", res.Stats.Kills)
	}
	// Slot 0: data; slots 1-2 reclaimed (suspended); slots 3-4: compute.
	if want := 5; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
	if res.Stats.SuspendedSlots != 2 {
		t.Errorf("suspended slots = %d, want 2", res.Stats.SuspendedSlots)
	}
}

// TestNcomBoundsTransfers pins the master-link budget: with ncom=1, two
// concurrent transfers serialize.
func TestNcomBoundsTransfers(t *testing.T) {
	pl, procs := alwaysUp(t, 1, 1)
	prm := platform.Params{M: 2, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 2}
	res := run(t, pl, procs, prm, batch.FCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Stats.PeakTransfers != 1 {
		t.Errorf("peak transfers = %d, want 1", res.Stats.PeakTransfers)
	}
	// Job 0 transfers slots 0-1 and computes slot 2; job 1 (equal speeds,
	// dispatched to the idle worker at slot 0) transfers slots 2-3 and
	// computes slot 4.
	if want := 5; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
}

// TestCensoredRun pins the slot cap.
func TestCensoredRun(t *testing.T) {
	pl, procs := replay(t, []int{1}, func(int) string { return "d" })
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 0, MaxSlots: 40}
	res := run(t, pl, procs, prm, batch.FCFS)
	if res.Completed {
		t.Fatal("run on a dead worker completed")
	}
	if res.Makespan != 40 {
		t.Errorf("censored makespan = %d, want 40", res.Makespan)
	}
}

// TestRunnerMatchesRun pins that the pooled Runner reproduces one-shot
// results bit for bit across back-to-back runs of different shapes.
func TestRunnerMatchesRun(t *testing.T) {
	rn := batch.NewRunner()
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		r := rng.New(seed)
		pl := platform.RandomPlatform(r, 2+r.Intn(6), 1+r.Intn(3))
		prm := platform.Params{
			M: 1 + r.Intn(6), Iterations: 1 + r.Intn(3),
			Ncom: 1 + r.Intn(4), Tprog: r.Intn(8), Tdata: r.Intn(4),
			MaxSlots: 200000,
		}
		for _, d := range []batch.Discipline{batch.FCFS, batch.EASY} {
			mk := func() []avail.Process {
				rr := rng.New(seed ^ 0xBEEF)
				procs := make([]avail.Process, pl.P())
				for i, proc := range pl.Processors {
					procs[i] = proc.Avail.NewProcess(rr.Split(), proc.Avail.SampleStationary(rr))
				}
				return procs
			}
			oneShot, err := batch.Run(batch.Config{Platform: pl, Params: prm, Procs: mk(), Discipline: d})
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := rn.Run(batch.Config{Platform: pl, Params: prm, Procs: mk(), Discipline: d})
			if err != nil {
				t.Fatal(err)
			}
			if oneShot.Makespan != pooled.Makespan || oneShot.Completed != pooled.Completed ||
				oneShot.Stats != pooled.Stats {
				t.Errorf("seed %d %v: pooled run diverged: %+v vs %+v", seed, d, oneShot, pooled)
			}
		}
	}
}

// TestConfigValidation exercises the error paths.
func TestConfigValidation(t *testing.T) {
	pl, procs := alwaysUp(t, 1)
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1}
	cases := []struct {
		name string
		cfg  batch.Config
	}{
		{"nil platform", batch.Config{Params: prm, Procs: procs}},
		{"proc count mismatch", batch.Config{Platform: pl, Params: prm, Procs: nil}},
		{"nil proc", batch.Config{Platform: pl, Params: prm, Procs: []avail.Process{nil}}},
		{"bad params", batch.Config{Platform: pl, Params: platform.Params{}, Procs: procs}},
		{"bad discipline", batch.Config{Platform: pl, Params: prm, Procs: procs, Discipline: 99}},
	}
	for _, c := range cases {
		if _, err := batch.Run(c.cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}
