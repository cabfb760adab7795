package main

import (
	"repro/internal/sweepreq"
)

// experiments lists every -exp value main dispatches on, in the order the
// usage text presents them. The canonical list lives in internal/sweepreq,
// shared with cmd/volaserved; the CLI table test pins that the dispatch
// switch and this list agree.
var experiments = sweepreq.Experiments()

// validateArgs rejects unusable sweep parameters up front: a non-positive
// -scenarios or -trials would silently produce an empty sweep (or a
// divide-by-zero summary), a negative -workers would be passed to the
// pipeline as a nonsense concurrency, and an unknown -exp should name the
// valid experiments instead of leaving the user to read the source.
// An unknown -mode is rejected the same way, naming the valid modes.
// A negative -p (platform-size override) is rejected here too; the library
// validates again (ScenarioOptions.Validate), but failing pre-profile keeps
// the CLI contract uniform. It is a flag-shaped wrapper over
// sweepreq.Request.Validate — the exact validation cmd/volaserved applies
// to JSON submissions — so both surfaces reject the same inputs with the
// same messages.
func validateArgs(exp, mode string, scenarios, trials, workers, procs int) error {
	return sweepreq.Request{
		Exp:       exp,
		Mode:      mode,
		Scenarios: scenarios,
		Trials:    trials,
		Workers:   workers,
		Procs:     procs,
	}.Validate()
}
