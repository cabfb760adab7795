package volatile

// MoldableConfig is the historical name of a moldable-iterations sweep's
// config: a SweepConfig whose Alloc names the allocation policy.
type MoldableConfig = SweepConfig

// MoldableSweep runs a moldable-iterations sweep: RunSweep with an empty
// Alloc defaulted to "fixed". Under "fixed" every run is bit-identical to
// the rigid model, so the aggregates match RunSweep's exactly; the adaptive
// policies (maximum-iters, split-into, reshape) size iterations from the
// worker availability each heuristic's own schedule encounters, so their
// dfb rankings measure heuristic quality under a moldable workload.
func MoldableSweep(cfg MoldableConfig) (*SweepResult, error) {
	if cfg.Alloc == "" {
		cfg.Alloc = "fixed"
	}
	return RunSweep(cfg)
}

// MoldableSweepConfig builds a Table 2-shaped moldable sweep: the full
// Table 1 grid under the given allocation policy, with the given per-cell
// scenario and trial counts.
func MoldableSweepConfig(alloc string, scenarios, trials int, seed uint64) MoldableConfig {
	cfg := Table2Config(scenarios, trials, seed)
	cfg.Alloc = alloc
	return cfg
}
