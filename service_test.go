package volatile

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestNegativeCheckpointEveryRejected pins the PR 9 bugfix: a negative
// cadence used to fall through the `Every > 0` guard and silently run with
// the default interval; now every sweep flavour rejects it up front.
func TestNegativeCheckpointEveryRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")

	cfg := resumeTestConfig()
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: -3}
	if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "Every must be >= 0") {
		t.Fatalf("RunSweep with Every=-3 returned %v, want the negative-cadence error", err)
	}

	for _, src := range []Source{TraceSource{TraceLen: 100, Style: TraceWeibull}, CompareSource{}} {
		cfg := SweepConfig{
			Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}},
			Heuristics: []string{"emct", "mct*"},
			Scenarios:  1,
			Trials:     1,
			Source:     src,
			Checkpoint: &CheckpointConfig{Path: path, Every: -1},
		}
		if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "Every must be >= 0") {
			t.Fatalf("%T sweep with Every=-1 returned %v, want the negative-cadence error", src, err)
		}
	}
}

// TestReadCheckpointPartialIsBitExact pins the partial-aggregate contract:
// a checkpoint written at completion restores to a SweepResult that formats
// (and therefore digests) identically to the result the sweep returned, and
// its progress counters report the full chunk range.
func TestReadCheckpointPartialIsBitExact(t *testing.T) {
	cfg := resumeTestConfig()
	path := filepath.Join(t.TempDir(), "done.ckpt")
	cfg.Checkpoint = &CheckpointConfig{Path: path}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommittedChunks != st.Chunks || st.Chunks != len(cfg.Cells)*cfg.Scenarios {
		t.Fatalf("completed checkpoint reports %d/%d chunks, want %d/%d",
			st.CommittedChunks, st.Chunks, len(cfg.Cells)*cfg.Scenarios, len(cfg.Cells)*cfg.Scenarios)
	}
	if st.Partial.Instances != res.Instances {
		t.Fatalf("Partial.Instances = %d, want %d", st.Partial.Instances, res.Instances)
	}
	if st.Partial.Digest() != res.Digest() {
		t.Fatalf("completed-checkpoint partial drifted from the returned result:\n got  %s\n want %s",
			st.Partial.Digest(), res.Digest())
	}
}

// TestReadCheckpointMidSweep pins the streaming view: a checkpoint captured
// mid-sweep restores a strict-prefix partial whose instance count matches
// the committed chunks.
func TestReadCheckpointMidSweep(t *testing.T) {
	cfg := resumeTestConfig()
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	cfg.Workers = 1
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 1}

	stop := make(chan struct{})
	closed := false
	cfg.Stop = stop
	cfg.Progress = func(done, total int) {
		if !closed && done >= total/2 {
			closed = true
			close(stop)
		}
	}
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("stopped sweep returned no error")
	}

	st, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommittedChunks <= 0 || st.CommittedChunks >= st.Chunks {
		t.Fatalf("mid-sweep checkpoint covers %d/%d chunks, want a strict prefix", st.CommittedChunks, st.Chunks)
	}
	// Each chunk is one (cell, scenario) pair = Trials instances.
	if want := st.CommittedChunks * cfg.Trials; st.Partial.Instances != want {
		t.Fatalf("Partial.Instances = %d, want %d (%d chunks x %d trials)",
			st.Partial.Instances, want, st.CommittedChunks, cfg.Trials)
	}
	if len(st.Partial.Overall) == 0 {
		t.Fatal("mid-sweep partial has no Overall rows")
	}
}
