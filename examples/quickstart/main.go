// Quickstart: draw one volatile-platform scenario, run a single heuristic,
// and inspect the result — the smallest possible end-to-end use of the
// public API.
package main

import (
	"fmt"
	"log"

	volatile "repro"
)

func main() {
	// A mid-grid scenario from the paper's Table 1: 20 tasks per iteration,
	// the master can serve 10 workers at once, task durations scale with
	// wmin=3 (processor speeds are drawn from [3, 30], Tdata=3, Tprog=15).
	scn := volatile.NewScenario(42,
		volatile.Cell{Tasks: 20, Ncom: 10, Wmin: 3},
		volatile.ScenarioOptions{})

	fmt.Print(scn.Describe())

	// Run the paper's overall-best heuristic, EMCT*: expected minimum
	// completion time with the contention-correcting factor.
	res, err := scn.Run("emct*", 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nemct* finished %d iterations in %d slots\n",
		len(res.IterationEnds), res.Makespan)
	fmt.Printf("iteration ends: %v\n", res.IterationEnds)
	fmt.Printf("crashes survived: %d, task replicas launched: %d\n",
		res.Stats.Crashes, res.Stats.ReplicasStarted)
	fmt.Printf("compute slots: %d total, %d wasted to volatility\n",
		res.Stats.ComputeSlots, res.Stats.WastedComputeSlots)

	// Compare with plain MCT (reliability-blind) on the same world: both
	// runs see identical availability trajectories because they share the
	// scenario and trial seed.
	mct, err := scn.Run("mct", 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmct on the same instance: %d slots", mct.Makespan)
	switch {
	case mct.Makespan > res.Makespan:
		fmt.Printf(" (emct* wins by %.1f%%)\n",
			100*float64(mct.Makespan-res.Makespan)/float64(res.Makespan))
	case mct.Makespan < res.Makespan:
		fmt.Printf(" (mct wins by %.1f%%)\n",
			100*float64(res.Makespan-mct.Makespan)/float64(mct.Makespan))
	default:
		fmt.Println(" (tie)")
	}

	// Run is shorthand for RunWith and a RunSpec, which carries every other
	// knob: the sampling mode, a reusable Runner, an allocation policy,
	// explicit availability vectors, callbacks. Event mode samples
	// availability per sojourn, so its trajectory follows the same models
	// but is a different draw than slot mode's.
	ev, err := scn.RunWith(volatile.RunSpec{Heuristic: "emct*", TrialSeed: 1, Mode: volatile.ModeEvent})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("emct* on the event-driven clock: %d slots\n", ev.Makespan)
}
