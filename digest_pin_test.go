package volatile_test

import (
	"fmt"
	"path/filepath"
	"testing"

	volatile "repro"
	"repro/internal/faultinject"
	"repro/internal/sweepreq"
)

// pinChunks is how many leading chunks a pinned experiment actually
// simulates. Every later instance fails before simulating (an injected
// instance fault) and ContinueOnError drops it, so a 120-cell paper-grid
// experiment costs three chunks while its config digest — and the Build
// path that produced it — stay exactly the service's.
const pinChunks = 3

// firstChunksOnly is the fault plan confining a sweep to its first
// pinChunks chunks.
func firstChunksOnly() *faultinject.Plan {
	return &faultinject.Plan{Instance: func(chunk, trial, _ int) error {
		if chunk < pinChunks {
			return nil
		}
		return fmt.Errorf("pin: chunk %d outside the pinned prefix", chunk)
	}}
}

// pinnedDigests maps every sweep experiment (plus BatchSweep) at a fixed
// seed and reduced size to its canonical config digest and its result
// digest. The strings were captured before the sweep families were folded
// into one SweepConfig and must never be edited: a config digest change
// orphans on-disk checkpoints and cached service results, a result digest
// change is a behavioural change.
var pinnedDigests = []struct {
	name           string
	req            sweepreq.Request
	config, result string
}{
	{"table2", sweepreq.Request{Exp: "table2"},
		"1be31e355d56a062eb9044d51d9bf54dad8d49945260a4935d234129469b90fe",
		"be3800267a117ec17f75349970563217b4114085279401972640de073b4d52da"},
	{"figure2", sweepreq.Request{Exp: "figure2"},
		"2fa984206573f269cf1593779b3ecbc4a62483ff21b5c4bc539331c88bcbf5c5",
		"005969c9fb5156ba25f795d41bb7c1a143fcd768fe26997451d58a56116da487"},
	{"table3x5", sweepreq.Request{Exp: "table3x5"},
		"1435e3e89893443a3a16f03ad1c584d8749279872c6146196c08125371304eeb",
		"6af0d4113aa7c5f6f2c7f309a2a5f03d3025a3eac1c1aa8b53aae8684d330675"},
	{"table3x10", sweepreq.Request{Exp: "table3x10"},
		"af890fdfa18f72ab3032771d7fb53c09d41fb9070abc656f6a7915894b583581",
		"6abb4bb048449e2fab3cc0cde75bbf72a9bfdb19de46d34ee8b4de184236bbf2"},
	{"tracesweep-synthetic", sweepreq.Request{Exp: "tracesweep", TraceStyle: "pareto", TraceLen: 300},
		"dfe4bdfa65a44c2f13e3f2987cbef26f64fb04233de40f867cd2d1bebb648bdf",
		"b1c9cafeb18f69e2c64a693025bbe3084ec86439da4b746941afb0d119716c45"},
	{"tracesweep-file", sweepreq.Request{Exp: "tracesweep", TraceFiles: []string{"testdata/pin.volatrace"}},
		"08cbad99ebd6ef5df637a7f65f1217cec460f41ae690ac66539226b676ee2167",
		"60a092d561f97ef48493e4cff8608f3178cf55c627e4627652244c52c65d5943"},
	{"dfrs", sweepreq.Request{Exp: "dfrs"},
		"ecdcdbe95baf1581ffc2dfbb15d632312940bb9a30b64d8dbfbc544e05e5482f",
		"4b48c2f92738e094014bac829cb7317b1f2f884ad0113b0df66b3b82d68cb631"},
	// Captured when the batch contenders joined the sweep's clock; an
	// event-mode dfrs sweep differs from the one before in both digests.
	{"dfrs-event", sweepreq.Request{Exp: "dfrs", Mode: "event"},
		"4142244084ed32850be88f267274d85d84eb29ce83517e9d4c28d71cc72f9f31",
		"4a342e5555537380f221f6776fe34ec10a426f84c8e4f343eed233c8d941356d"},
	{"largep", sweepreq.Request{Exp: "largep", Procs: 200, Mode: "event"},
		"edab48bcffc73f6f89dde9484054ccd7379d490a3b08c2676b8ee8567226c527",
		"8a11ea374b2eed73386dd59a0446ef16a6305c3c22353e4859fbfb4607dba043"},
	{"moldable", sweepreq.Request{Exp: "moldable"},
		"f67dc1efe6e11ef6119e64fc1a445df3b4f122b1ddbb19b3666eba155e7e5c67",
		"bfb5611a0f7a0e12626530e92691185c54f87fe60c78e20a7169b6099a4ebd91"},
	{"batchsweep", sweepreq.Request{},
		"ea41e1e4518a89de56aa17bcfa6ab0fee8d516d104105ab0dd10f2c5fc863985",
		"1d1e513cb482c71db400466fac3dbf2df961c8c78f2ad6ab855ed9cc61033731"},
}

// batchPinConfig is the BatchSweep entry of the pin table, which has no
// sweepreq experiment.
func batchPinConfig() volatile.SweepConfig {
	return volatile.SweepConfig{
		Cells:     []volatile.Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 8, Ncom: 4, Wmin: 2}},
		Scenarios: 2,
		Trials:    2,
		Seed:      11,
	}
}

// checkBinding asserts that the checkpoint at path is bound to digest.
func checkBinding(t *testing.T, path, digest string) {
	t.Helper()
	st, err := volatile.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.ConfigDigest != digest {
		t.Fatalf("checkpoint bound to %s, ConfigDigest says %s", st.ConfigDigest, digest)
	}
}

// TestConfigDigestMatchesCheckpointBinding pins the service cache-key
// contract for every sweep flavour: ConfigDigest computes, without running
// anything, exactly the digest the checkpoint layer stamps into the file —
// so a result cache keyed on ConfigDigest is coherent with resume. The pin
// subtests additionally lock each sweep experiment's config and result
// digests to literal values.
func TestConfigDigestMatchesCheckpointBinding(t *testing.T) {
	cells := []volatile.Cell{{Tasks: 5, Ncom: 5, Wmin: 1}}
	heuristics := []string{"emct", "mct*"}
	t.Run("runsweep", func(t *testing.T) {
		cfg := volatile.SweepConfig{
			Cells:      []volatile.Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 8, Ncom: 4, Wmin: 2}},
			Heuristics: []string{"emct", "mct*", "random2w"},
			Scenarios:  3,
			Trials:     2,
			Seed:       1234,
		}
		want, err := cfg.ConfigDigest()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "run.ckpt")
		cfg.Checkpoint = &volatile.CheckpointConfig{Path: path}
		if _, err := volatile.RunSweep(cfg); err != nil {
			t.Fatal(err)
		}
		checkBinding(t, path, want)
	})
	t.Run("tracesweep", func(t *testing.T) {
		cfg := volatile.SweepConfig{
			Cells: cells, Heuristics: heuristics, Scenarios: 1, Trials: 1, Seed: 9,
			Source: volatile.TraceSource{TraceLen: 100, Style: volatile.TraceWeibull},
		}
		want, err := cfg.ConfigDigest()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "trace.ckpt")
		cfg.Checkpoint = &volatile.CheckpointConfig{Path: path}
		if _, err := volatile.RunSweep(cfg); err != nil {
			t.Fatal(err)
		}
		checkBinding(t, path, want)
	})
	t.Run("comparesweep", func(t *testing.T) {
		cfg := volatile.SweepConfig{
			Cells: cells, Heuristics: heuristics, Scenarios: 1, Trials: 1, Seed: 9,
			Source: volatile.CompareSource{},
		}
		want, err := cfg.ConfigDigest()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "cmp.ckpt")
		cfg.Checkpoint = &volatile.CheckpointConfig{Path: path}
		if _, err := volatile.RunSweep(cfg); err != nil {
			t.Fatal(err)
		}
		checkBinding(t, path, want)
	})
	for _, pin := range pinnedDigests {
		t.Run("pin/"+pin.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pin.ckpt")
			ck := &volatile.CheckpointConfig{Path: path}
			var config string
			var res *volatile.SweepResult
			var err error
			if pin.name == "batchsweep" {
				// BatchSweep has no ConfigDigest of its own: the checkpoint
				// binding is its only content address.
				cfg := batchPinConfig()
				cfg.Checkpoint = ck
				res, err = volatile.BatchSweep(cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := volatile.ReadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				config = st.ConfigDigest
			} else {
				req := pin.req
				req.Scenarios, req.Trials, req.Seed, req.ContinueOnError = 2, 2, 11, true
				built, err := sweepreq.Build(req)
				if err != nil {
					t.Fatal(err)
				}
				config = built.Digest
				res, err = built.Run(sweepreq.RunOpts{Checkpoint: ck, Faults: firstChunksOnly()})
				if err != nil {
					t.Fatal(err)
				}
				checkBinding(t, path, config)
			}
			if config != pin.config {
				t.Errorf("config digest moved:\n got  %s\n want %s", config, pin.config)
			}
			if got := res.Digest(); got != pin.result {
				t.Errorf("result digest moved:\n got  %s\n want %s", got, pin.result)
			}
		})
	}
}
