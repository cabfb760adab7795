package volatile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLegacyCheckpointsResume resumes one mid-sweep checkpoint per config
// digest family, each written by the code that predates the single
// SweepConfig (a committer crash after 3 of 6 chunks, so the files hold 2
// committed chunks), and requires the pinned uninterrupted result digest.
// A refactor that moves a family's canonical config string fails here with
// a digest-mismatch error; one that moves results fails on the digest.
func TestLegacyCheckpointsResume(t *testing.T) {
	base := resumeTestConfig()
	cases := []struct {
		family string
		run    func(ck *CheckpointConfig) (*SweepResult, error)
		want   string
	}{
		{"runsweep", func(ck *CheckpointConfig) (*SweepResult, error) {
			cfg := base
			cfg.Checkpoint = ck
			return RunSweep(cfg)
		}, "807b589145b58d454485489d2b79598ac5916482a92eff6f8e25d466fb31e893"},
		{"tracesweep", func(ck *CheckpointConfig) (*SweepResult, error) {
			cfg := base
			cfg.Source, cfg.Checkpoint = TraceSource{TraceLen: 150, Style: TraceWeibull}, ck
			return RunSweep(cfg)
		}, "c0a4ef9785bdbc7184e1811845c3c6dc85deb54170bab10e4d2f6d1d8cd35775"},
		{"comparesweep", func(ck *CheckpointConfig) (*SweepResult, error) {
			cfg := base
			cfg.Source, cfg.Checkpoint = CompareSource{}, ck
			return RunSweep(cfg)
		}, "bc54a39d52abffaf642a3040c6ff5168f5655d3a84eee6e7beec7cfc295627f8"},
		{"moldable", func(ck *CheckpointConfig) (*SweepResult, error) {
			cfg := moldableTestConfig()
			cfg.Checkpoint = ck
			return MoldableSweep(cfg)
		}, goldenMoldableDigest},
	}
	for _, c := range cases {
		t.Run(c.family, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", "legacy-"+c.family+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			// Resume rewrites the checkpoint; work on a copy.
			path := filepath.Join(t.TempDir(), "resume.ckpt")
			if err := os.WriteFile(path, src, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := ReadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.CommittedChunks <= 0 || st.CommittedChunks >= st.Chunks {
				t.Fatalf("checkpoint covers %d/%d chunks, want a strict mid-sweep prefix", st.CommittedChunks, st.Chunks)
			}
			res, err := c.run(&CheckpointConfig{Path: path, Resume: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Digest(); got != c.want {
				t.Fatalf("resumed %s sweep drifted:\n got  %s\n want %s", c.family, got, c.want)
			}
		})
	}
}

// TestSkippingEngineEventCheckpointRefused resumes event-mode checkpoints
// whose chunks hold results the current engine does not produce, each a
// committer crash after 3 of 6 chunks: one of a sweep with a random-family
// heuristic, written by the engine that skipped quiet spans (and with them
// the random family's Pick draws), and one of a comparison sweep, written
// while the batch contenders sampled per slot on their own clock whatever
// the Mode. Each resume must fail on the config digest rather than splice
// stale chunks into the sweep.
func TestSkippingEngineEventCheckpointRefused(t *testing.T) {
	for _, c := range []struct {
		file string
		src  Source
	}{
		{"skipping-engine-event-random.ckpt", nil},
		{"own-clock-batch-event-compare.ckpt", CompareSource{}},
	} {
		t.Run(c.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "resume.ckpt")
			if err := os.WriteFile(path, src, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := resumeTestConfig()
			cfg.Mode = ModeEvent
			cfg.Source = c.src
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
			if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "different sweep config") {
				t.Fatalf("stale event-mode checkpoint resumed: %v", err)
			}
		})
	}
}
