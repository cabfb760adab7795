package sim

import (
	"fmt"

	"repro/internal/avail"
)

// This file is the engine's clock, the one time base of every run.
// Availability changes are queued: each worker's trajectory yields
// (state, startSlot) runs on a (slot, worker) min-heap, so advancing states
// costs O(changes) per slot, not O(P). Config.Mode only picks the
// trajectory (setTrajectories); every slot is stepped in both modes.

// trajectory is the engine's view of one worker's availability: the first
// call returns the slot-0 state at slot 0, each later call a state and the
// strictly later slot it holds from. Unlike avail.Trajectory it may repeat
// the current state (a slotSampler wake-up), which applies as a no-op.
type trajectory interface {
	NextTransition() (avail.State, int)
}

// slotSampler is slot mode's trajectory: it calls the wrapped process's
// Next once per slot, as the paper's slot loop does, and reports the first
// slot whose state differs. A call made at slot s draws at most through
// slot 2s+1 before reporting the unchanged state, so a state that never
// changes wakes the clock at slots 1, 3, 7, 15, …, and never past the
// run's final slot: a run ending at slot T reads at most 2T+2 slots of each
// process, and a censored run exactly the horizon.
type slotSampler struct {
	proc    avail.Process
	final   int // the run's final slot, MaxSlots-1
	started bool
	slot    int         // last slot drawn
	state   avail.State // state at slot
}

// NextTransition implements trajectory.
func (s *slotSampler) NextTransition() (avail.State, int) {
	if !s.started {
		s.started = true
		s.state = s.proc.Next()
		return s.state, 0
	}
	if s.slot >= s.final {
		return s.state, avail.Forever // no later slot runs
	}
	for end := min(2*s.slot+1, s.final); s.slot < end; {
		s.slot++
		if next := s.proc.Next(); next != s.state {
			s.state = next
			return next, s.slot
		}
	}
	return s.state, s.slot
}

// transitionHeap is a binary min-heap of pending availability transitions
// ordered by (slot, worker). Same-slot entries pop in ascending worker
// order, so simultaneous transitions — and their crash events — apply in
// ascending worker order whichever trajectory produced them.
type transitionHeap struct {
	slot   []int
	worker []int
}

func (h *transitionHeap) reset() {
	h.slot = h.slot[:0]
	h.worker = h.worker[:0]
}

func (h *transitionHeap) len() int { return len(h.slot) }

func (h *transitionHeap) less(a, b int) bool {
	return h.slot[a] < h.slot[b] ||
		(h.slot[a] == h.slot[b] && h.worker[a] < h.worker[b])
}

func (h *transitionHeap) swap(a, b int) {
	h.slot[a], h.slot[b] = h.slot[b], h.slot[a]
	h.worker[a], h.worker[b] = h.worker[b], h.worker[a]
}

func (h *transitionHeap) push(slot, worker int) {
	h.slot = append(h.slot, slot)
	h.worker = append(h.worker, worker)
	for i := len(h.slot) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// min returns the earliest queued transition slot.
func (h *transitionHeap) min() (slot int, ok bool) {
	if len(h.slot) == 0 {
		return 0, false
	}
	return h.slot[0], true
}

// pop removes and returns the root entry.
func (h *transitionHeap) pop() (slot, worker int) {
	slot, worker = h.slot[0], h.worker[0]
	last := len(h.slot) - 1
	h.swap(0, last)
	h.slot = h.slot[:last]
	h.worker = h.worker[:last]
	for i := 0; ; {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < last && h.less(left, least) {
			least = left
		}
		if right < last && h.less(right, least) {
			least = right
		}
		if least == i {
			break
		}
		h.swap(i, least)
		i = least
	}
	return slot, worker
}

// initEventClock sizes and fills the clock after reset: one trajectory per
// worker (setTrajectories), its slot-0 state applied directly and its first
// real transition queued. Applying slot 0 here — in ascending worker order,
// the same order the queue would drain a slot-0 tie — keeps the heap free
// of the initial P-way tie, and workers whose slot-0 state holds Forever
// (a permanently-down volunteer, a recorded vector past its end) never
// enter the queue at all. That makes priming O(P) with per-worker O(1)
// instead of the O(P log P) push-pop churn a 100k-worker platform paid on
// its first slot.
func (e *engine) initEventClock() error {
	p := len(e.workers)
	if cap(e.pendState) < p {
		e.pendState = make([]avail.State, p)
	}
	e.pendState = e.pendState[:p]
	if err := e.setTrajectories(); err != nil {
		return err
	}
	for i, tr := range e.trajs {
		s, at := tr.NextTransition()
		if at != 0 {
			return fmt.Errorf("sim: availability trajectory %d: first transition at slot %d, want 0", i, at)
		}
		if s != e.states[i] {
			e.applyState(i, s)
		}
		ns, nat := tr.NextTransition()
		if nat == avail.Forever {
			continue // the worker's slot-0 state holds for the whole run
		}
		if nat <= 0 {
			return fmt.Errorf("sim: availability trajectory %d: transition slot %d not after 0", i, nat)
		}
		e.pendState[i] = ns
		e.evq.push(nat, i)
	}
	return nil
}

// setTrajectories builds the per-worker trajectories. It is the one place
// Config.Mode is read: event mode drives each process through its own
// avail.Trajectory, slot mode wraps each in a pooled slotSampler.
func (e *engine) setTrajectories() error {
	p := len(e.cfg.Procs)
	if cap(e.trajs) < p {
		e.trajs = make([]trajectory, 0, p)
	}
	switch e.cfg.Mode {
	case ModeEvent:
		for i, proc := range e.cfg.Procs {
			tr, ok := proc.(avail.Trajectory)
			if !ok {
				return fmt.Errorf("sim: event mode requires availability processes implementing avail.Trajectory; process %d (%T) does not", i, proc)
			}
			e.trajs = append(e.trajs, tr)
		}
	case ModeSlot:
		if cap(e.samplers) < p {
			e.samplers = make([]slotSampler, p)
		}
		e.samplers = e.samplers[:p]
		final := e.params.EffectiveMaxSlots() - 1
		for i, proc := range e.cfg.Procs {
			e.samplers[i] = slotSampler{proc: proc, final: final}
			e.trajs = append(e.trajs, &e.samplers[i])
		}
	default:
		return fmt.Errorf("sim: invalid mode %d", e.cfg.Mode)
	}
	return nil
}

// advanceStatesEvent applies the availability transitions due at the
// current slot and refills the queue from the trajectories. Between queued
// transitions a worker's state is constant, so slots with no due entry
// leave every state untouched, at O(changes) instead of O(P) cost.
func (e *engine) advanceStatesEvent() error {
	for {
		at, ok := e.evq.min()
		if !ok || at > e.slot {
			return nil
		}
		_, i := e.evq.pop()
		next := e.pendState[i]
		if next != e.states[i] {
			e.applyState(i, next)
		}
		ns, nat := e.trajs[i].NextTransition()
		if nat == avail.Forever {
			continue // the worker's state holds for the rest of the run
		}
		if nat <= at {
			return fmt.Errorf("sim: availability trajectory %d: transition slot %d not after %d", i, nat, at)
		}
		e.pendState[i] = ns
		e.evq.push(nat, i)
	}
}
