package sim_test

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Micro-benchmarks for the incremental slot loop. Each isolates one of the
// costs the tracker removed: the per-pick least-covered scan (replication-
// heavy cell), and the per-slot full view rebuild (quiet platform where most
// workers are DOWN and clean).

// benchReplicationHeavy runs many UP processors against few tasks, so the
// replication loop fires almost every slot. Pre-tracker, every pick
// re-scanned all m tasks.
func benchReplicationHeavy(b *testing.B, mode sim.Mode) {
	scen := rng.New(7)
	pl := platform.RandomPlatform(scen, 40, 3)
	prm := platform.Params{M: 6, Iterations: 8, Ncom: 8, Tprog: 10, Tdata: 2, MaxReplicas: 2}
	runner := sim.NewRunner()
	b.ReportAllocs()
	totalSlots := 0
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		procs := make([]avail.Process, pl.P())
		for j, p := range pl.Processors {
			procs[j] = p.Avail.NewProcess(r.Split(), avail.Up)
		}
		sched, _ := core.New("emct*", nil)
		res, err := runner.Run(sim.Config{Platform: pl, Params: prm, Procs: procs, Scheduler: sched, Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		totalSlots += res.Makespan
	}
	b.ReportMetric(float64(totalSlots)/float64(b.N), "slots/run")
}

func BenchmarkEngineReplicationHeavy(b *testing.B) { benchReplicationHeavy(b, sim.ModeSlot) }

// BenchmarkEngineReplicationHeavyEvent is the busy-platform worst case for
// sojourn sampling: transitions are frequent, so the transition queue is
// busy every slot. The pair compares the two samplers on busy cells.
func BenchmarkEngineReplicationHeavyEvent(b *testing.B) { benchReplicationHeavy(b, sim.ModeEvent) }

// benchQuietPlatform keeps most of a large platform DOWN, so the dirty set
// leaves the bulk of the ProcViews untouched each slot. Pre-tracker,
// buildView rebuilt all P snapshots every slot regardless.
func benchQuietPlatform(b *testing.B, mode sim.Mode) {
	// Mostly-down model: long DOWN sojourns, short UP bursts.
	quiet := avail.MustMarkov3([3][3]float64{
		{0.60, 0.10, 0.30},
		{0.10, 0.60, 0.30},
		{0.02, 0.02, 0.96},
	})
	pl := platform.Homogeneous(40, 3, quiet)
	prm := platform.Params{
		M: 10, Iterations: 3, Ncom: 8, Tprog: 10, Tdata: 2,
		MaxReplicas: 2, MaxSlots: 20000,
	}
	runner := sim.NewRunner()
	b.ReportAllocs()
	totalSlots := 0
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		procs := make([]avail.Process, pl.P())
		for j, p := range pl.Processors {
			procs[j] = p.Avail.NewProcess(r.Split(), avail.Down)
		}
		sched, _ := core.New("emct*", nil)
		res, err := runner.Run(sim.Config{Platform: pl, Params: prm, Procs: procs, Scheduler: sched, Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		totalSlots += res.Makespan
	}
	b.ReportMetric(float64(totalSlots)/float64(b.N), "slots/run")
}

func BenchmarkEngineQuietPlatform(b *testing.B) { benchQuietPlatform(b, sim.ModeSlot) }

// BenchmarkEngineQuietPlatformEvent is sojourn sampling's home turf: with
// long DOWN sojourns event mode saves most of the per-slot draws, so this
// pair measures what the sampler alone costs on the same platform.
func BenchmarkEngineQuietPlatformEvent(b *testing.B) { benchQuietPlatform(b, sim.ModeEvent) }
