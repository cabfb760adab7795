package avail_test

import (
	"strings"
	"testing"

	"repro/internal/avail"
	"repro/internal/rng"
)

// change is one state change the clock reported.
type change struct {
	slot, worker int
	state        avail.State
}

// drive runs a clock over procs for horizon slots and returns its slot-0
// states and every change it applied, in application order.
func drive(t *testing.T, procs []avail.Process, mode avail.Mode, horizon int) ([]avail.State, []change) {
	t.Helper()
	var c avail.Clock
	if err := c.Start(procs, mode, horizon); err != nil {
		t.Fatal(err)
	}
	initial := make([]avail.State, len(procs))
	for i := range initial {
		initial[i] = c.State(i)
	}
	var got []change
	for slot := 0; slot < horizon; slot++ {
		err := c.Advance(slot, func(i int, s avail.State) {
			if c.State(i) != s {
				t.Fatalf("slot %d: apply(%d, %v) before State reports it", slot, i, s)
			}
			got = append(got, change{slot, i, s})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return initial, got
}

// vectorProcs parses one replay process per vector.
func vectorProcs(t *testing.T, vectors []string) []avail.Process {
	t.Helper()
	procs := make([]avail.Process, len(vectors))
	for i, s := range vectors {
		v, err := avail.ParseVector(s)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = avail.NewVectorProcess(v)
	}
	return procs
}

// TestClockReportsEveryChangeInWorkerOrder replays random vectors through
// both modes and checks the clock against a slot-by-slot scan: the same
// slot-0 states, exactly the slots where a vector changes, and same-slot
// changes in ascending worker order — the order the engines kill and
// requeue in.
func TestClockReportsEveryChangeInWorkerOrder(t *testing.T) {
	r := rng.New(3)
	const horizon = 120
	for trial := 0; trial < 20; trial++ {
		vectors := make([]string, 1+r.Intn(12))
		for i := range vectors {
			var b strings.Builder
			for k, n := 0, 1+r.Intn(horizon+20); k < n; k++ {
				b.WriteByte("uuurd"[r.Intn(5)])
			}
			vectors[i] = b.String()
		}
		var want []change
		for slot := 1; slot < horizon; slot++ {
			for i, v := range vectors {
				at := func(k int) byte { return v[min(k, len(v)-1)] }
				if at(slot) != at(slot-1) {
					s, _ := avail.ParseState(at(slot))
					want = append(want, change{slot, i, s})
				}
			}
		}
		for _, mode := range []avail.Mode{avail.ModeSlot, avail.ModeEvent} {
			initial, got := drive(t, vectorProcs(t, vectors), mode, horizon)
			for i, v := range vectors {
				if s, _ := avail.ParseState(v[0]); initial[i] != s {
					t.Fatalf("trial %d %v: worker %d starts %v, vector says %v", trial, mode, i, initial[i], s)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %v: %d changes, want %d", trial, mode, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("trial %d %v: change %d = %+v, want %+v", trial, mode, k, got[k], want[k])
				}
			}
		}
	}
}
