package sim

import (
	"fmt"
	"strings"
)

// Mode selects how availability is sampled. It is only a sampling
// granularity: both modes run on the same clock, which steps every slot.
type Mode uint8

const (
	// ModeSlot draws every processor's availability once per slot through
	// avail.Process.Next — the paper's literal per-slot Markov chain and
	// the reference semantics. The zero value, so configurations that never
	// mention a mode keep their exact historical results.
	ModeSlot Mode = iota
	// ModeEvent draws availability at sojourn granularity through
	// avail.Trajectory (one draw per state run instead of one per slot).
	// Results are distribution-identical to slot mode but not bit-identical
	// for Markov platforms, because the RNG is consumed per transition
	// rather than per slot; on recorded vectors, which consume no RNG, the
	// two modes match exactly for every scheduler.
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
	return 0, fmt.Errorf("sim: unknown mode %q (valid modes: %s)",
		s, strings.Join(modeNames, ", "))
}
