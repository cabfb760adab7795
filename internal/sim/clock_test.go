package sim_test

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// countedProc counts the Next calls made on a per-slot process.
type countedProc struct {
	p avail.Process
	n int
}

func (c *countedProc) Next() avail.State { c.n++; return c.p.Next() }

// TestSlotSamplerLookaheadBound pins how far slot mode reads ahead: each
// worker's process is drawn once per slot through the makespan (the draws
// of a slot-by-slot loop) and, although a recorded vector past its end
// holds its last state up to the default one-million-slot horizon, at most
// 2 × (makespan + 1) times in all. A censored run draws exactly its
// horizon, as a slot-by-slot loop would.
func TestSlotSamplerLookaheadBound(t *testing.T) {
	run := func(h string, vectors []string, maxSlots int) (*sim.Result, []*countedProc) {
		t.Helper()
		pl := platform.RandomPlatform(rng.New(5), len(vectors), 2)
		procs := make([]avail.Process, len(vectors))
		counts := make([]*countedProc, len(vectors))
		for i, s := range vectors {
			v, err := avail.ParseVector(s)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = &countedProc{p: avail.NewVectorProcess(v)}
			procs[i] = counts[i]
		}
		sched, err := core.New(h, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.NewRunner().Run(sim.Config{
			Platform:  pl,
			Params:    platform.Params{M: 6, Iterations: 3, Ncom: 2, Tprog: 4, Tdata: 2, MaxReplicas: 1, MaxSlots: maxSlots},
			Procs:     procs,
			Scheduler: sched,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, counts
	}
	for _, h := range []string{"emct*", "mct", "random"} {
		res, counts := run(h, []string{"uuuuuuuuuu", "uurruuuuuu", "uuuuuuuuuu", "ddduuuuuuu"}, 0)
		if !res.Completed || res.Makespan >= platform.DefaultMaxSlots/2 {
			t.Fatalf("%s: want a short completed run, got %+v", h, res)
		}
		for i, c := range counts {
			if c.n < res.Makespan || c.n > 2*(res.Makespan+1) {
				t.Errorf("%s: worker %d drew %d slots for makespan %d, want within [%d, %d]",
					h, i, c.n, res.Makespan, res.Makespan, 2*(res.Makespan+1))
			}
		}

		const horizon = 40
		res, counts = run(h, []string{"uuuuuuu", "ddddddd", "uuurrrr"}, horizon)
		if res.Completed || res.Makespan != horizon {
			t.Fatalf("%s: want a run censored at %d, got %+v", h, horizon, res)
		}
		for i, c := range counts {
			if c.n != horizon {
				t.Errorf("%s: censored worker %d drew %d slots, want %d", h, i, c.n, horizon)
			}
		}
	}
}
