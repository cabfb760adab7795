package avail

import (
	"fmt"
	"strings"
)

// Mode selects how a Clock samples availability. It is only a sampling
// granularity: both modes run on the same clock, which steps every slot.
type Mode uint8

const (
	// ModeSlot draws every processor's availability once per slot through
	// Process.Next — the paper's literal per-slot Markov chain and the
	// reference semantics. The zero value, so configurations that never
	// mention a mode keep their exact historical results.
	ModeSlot Mode = iota
	// ModeEvent draws availability at sojourn granularity through
	// Trajectory (one draw per state run instead of one per slot). Results
	// are distribution-identical to slot mode but not bit-identical for
	// Markov platforms, because the RNG is consumed per transition rather
	// than per slot; on recorded vectors, which consume no RNG, the two
	// modes match exactly.
	ModeEvent
)

// modeNames lists the valid mode names, indexed by Mode.
var modeNames = []string{"slot", "event"}

// ModeNames returns the valid mode names in declaration order.
func ModeNames() []string { return append([]string(nil), modeNames...) }

// String renders the mode's canonical name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode parses a mode name, failing fast with the list of valid names —
// the same contract CLI flag validation uses for experiment names.
func ParseMode(s string) (Mode, error) {
	for i, name := range modeNames {
		if s == name {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("avail: unknown mode %q (valid modes: %s)",
		s, strings.Join(modeNames, ", "))
}

// Clock is the one time base of every simulated run: it drives one
// availability process per worker and reports each worker's state changes,
// so the engines riding it only apply a worker's new state. Changes are
// queued: each worker's trajectory yields (state, startSlot) runs onto a
// (slot, worker) min-heap, so advancing costs O(changes) per slot, not
// O(P). The Mode only picks the trajectory; same-slot changes apply in
// ascending worker order in both modes. A Clock is reused across runs and
// must not be shared between goroutines.
type Clock struct {
	trajs    []transitions
	samplers []slotSampler
	// state[i] is worker i's current state, pend[i] the state it enters at
	// its queued slot.
	state []State
	pend  []State
	q     transitionHeap
}

// transitions is the clock's view of one worker's availability: the first
// call returns the slot-0 state at slot 0, each later call a state and the
// strictly later slot it holds from. Unlike Trajectory it may repeat the
// current state (a slotSampler wake-up), which the clock applies as a no-op.
type transitions interface {
	NextTransition() (State, int)
}

// Start primes the clock for a run of horizon slots over procs, one per
// worker: State then reports each worker's slot-0 state, and each worker's
// first change is queued. Workers whose slot-0 state holds for the whole
// run (a permanently-down volunteer, a recorded vector past its end) never
// enter the queue, so priming is O(P) rather than an O(P log P) slot-0 tie.
func (c *Clock) Start(procs []Process, mode Mode, horizon int) error {
	p := len(procs)
	if cap(c.state) < p {
		c.state = make([]State, p)
		c.pend = make([]State, p)
	}
	c.state, c.pend = c.state[:p], c.pend[:p]
	c.q.reset()
	// Event mode drives each process through its own Trajectory, slot mode
	// wraps each in a pooled slotSampler.
	c.trajs = c.trajs[:0]
	for i, proc := range procs {
		if proc == nil {
			return fmt.Errorf("avail: nil availability process %d", i)
		}
	}
	switch mode {
	case ModeEvent:
		for i, proc := range procs {
			tr, ok := proc.(Trajectory)
			if !ok {
				return fmt.Errorf("avail: event mode requires processes implementing avail.Trajectory; process %d (%T) does not", i, proc)
			}
			c.trajs = append(c.trajs, tr)
		}
	case ModeSlot:
		if cap(c.samplers) < p {
			c.samplers = make([]slotSampler, p)
		}
		c.samplers = c.samplers[:p]
		for i, proc := range procs {
			c.samplers[i] = slotSampler{proc: proc, final: horizon - 1}
			c.trajs = append(c.trajs, &c.samplers[i])
		}
	default:
		return fmt.Errorf("avail: invalid mode %d", mode)
	}
	for i, tr := range c.trajs {
		s, at := tr.NextTransition()
		if at != 0 {
			return fmt.Errorf("avail: trajectory %d: first transition at slot %d, want 0", i, at)
		}
		c.state[i] = s
		if err := c.queueNext(i, 0); err != nil {
			return err
		}
	}
	return nil
}

// State returns worker i's current state.
func (c *Clock) State(i int) State { return c.state[i] }

// Advance applies the changes due at slot: for every worker whose state
// changes there, in ascending worker order, it updates State and then
// calls apply with the new state. Slots must be advanced in increasing
// order; between queued changes a worker's state is constant, so a slot
// with no change due costs O(1).
func (c *Clock) Advance(slot int, apply func(worker int, s State)) error {
	for {
		at, ok := c.q.min()
		if !ok || at > slot {
			return nil
		}
		_, i := c.q.pop()
		if next := c.pend[i]; next != c.state[i] {
			c.state[i] = next
			apply(i, next)
		}
		if err := c.queueNext(i, at); err != nil {
			return err
		}
	}
}

// queueNext draws worker i's change after slot at and queues it, unless
// its state holds for the rest of the run.
func (c *Clock) queueNext(i, at int) error {
	ns, nat := c.trajs[i].NextTransition()
	if nat == Forever {
		return nil
	}
	if nat <= at {
		return fmt.Errorf("avail: trajectory %d: transition slot %d not after %d", i, nat, at)
	}
	c.pend[i] = ns
	c.q.push(nat, i)
	return nil
}

// slotSampler is slot mode's trajectory: it calls the wrapped process's
// Next once per slot, as the paper's slot loop does, and reports the first
// slot whose state differs. A call made at slot s draws at most through
// slot 2s+1 before reporting the unchanged state, so a state that never
// changes wakes the clock at slots 1, 3, 7, 15, …, and never past the
// run's final slot: a run ending at slot T reads at most 2T+2 slots of each
// process, and a censored run exactly the horizon.
type slotSampler struct {
	proc    Process
	final   int // the run's final slot, horizon-1
	started bool
	slot    int   // last slot drawn
	state   State // state at slot
}

// NextTransition implements transitions.
func (s *slotSampler) NextTransition() (State, int) {
	if !s.started {
		s.started = true
		s.state = s.proc.Next()
		return s.state, 0
	}
	if s.slot >= s.final {
		return s.state, Forever // no later slot runs
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
// order, so simultaneous transitions — and their crash consequences —
// apply in ascending worker order whichever trajectory produced them.
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
