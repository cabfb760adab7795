package volatile

// Trace-driven experiments: runs against explicit availability vectors
// (RunSpec.Vectors) and trace sweeps through the sharded pipeline
// (SweepConfig.Source = TraceSource). The paper's conclusion proposes
// challenging the Markov assumption with real availability traces;
// internal/trace supplies FTA-style synthetic generators and the fitting
// code, and this file wires them into the public API.
//
// Fitting a Markov model to a vector and parsing vector specs are pure
// functions of the input, so each Scenario interns the derived artifacts —
// parsed vectors plus a platform carrying the fitted models — in a small
// keyed cache. The cache key is the full vector content, and a scenario
// rebuild invalidates everything because the cache lives on the Scenario
// itself. Repeated runs on the same explicit trace set (every heuristic
// comparison does this) then reuse one fit — and one interned analytics
// table (expect.Analytics) — instead of re-deriving both per run. A trace
// sweep's synthetic trace sets are unique per (scenario, trial) and shared
// across that instance's heuristics directly, so they bypass the cache
// rather than bloat it.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/avail"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TraceStyle selects the synthetic sojourn-distribution family of trace
// sweeps (re-exported from the internal trace package).
type TraceStyle = trace.FTAStyle

// Supported synthetic trace families.
const (
	// TraceWeibull draws Weibull sojourns with shape 0.6 (heavy tail).
	TraceWeibull = trace.Weibull
	// TracePareto draws Pareto sojourns with tail index 2.5.
	TracePareto = trace.Pareto
	// TraceLogNormal draws log-normal sojourns with sigma 1.2.
	TraceLogNormal = trace.LogNormal
)

// traceModels is one interned trace artifact set: the parsed availability
// vectors and a platform whose processors carry the Markov models fitted to
// them (the master's "belief" handed to informed heuristics). Both are
// immutable after construction and safe to share across goroutines.
type traceModels struct {
	vectors  []avail.Vector
	platform *platform.Platform
}

// traceCacheLimit bounds the per-scenario cache. Sweeps run every heuristic
// of an instance back to back on one trace set, so even a small cache gets
// a hit for all but the first run; the limit only caps memory when many
// distinct trace sets stream through one scenario.
const traceCacheLimit = 32

// traceCache interns traceModels per key. Safe for concurrent use.
type traceCache struct {
	mu      sync.Mutex
	entries map[string]*traceModels
}

// models returns the interned artifacts for key, building them on a miss.
// The build runs under the lock: duplicate fits would cost more than the
// brief contention, and sweep workers overwhelmingly hit distinct scenarios
// anyway.
func (c *traceCache) models(key string, build func() (*traceModels, error)) (*traceModels, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tm, ok := c.entries[key]; ok {
		return tm, nil
	}
	tm, err := build()
	if err != nil {
		return nil, err
	}
	if c.entries == nil {
		c.entries = make(map[string]*traceModels, traceCacheLimit)
	}
	if len(c.entries) >= traceCacheLimit {
		for k := range c.entries { // evict one arbitrary entry
			delete(c.entries, k)
			break
		}
	}
	c.entries[key] = tm
	return tm, nil
}

// tracedModels resolves explicit vector specs through the scenario's
// intern cache, parsing and fitting on the first sighting only.
func (s *Scenario) tracedModels(vectors []string) (*traceModels, error) {
	if len(vectors) != s.inner.Platform.P() {
		return nil, fmt.Errorf("volatile: %d vectors for %d processors",
			len(vectors), s.inner.Platform.P())
	}
	key := "vec\x00" + strings.Join(vectors, "\x00")
	return s.traces.models(key, func() (*traceModels, error) {
		parsed := make([]avail.Vector, len(vectors))
		for i, spec := range vectors {
			v, err := avail.ParseVector(spec)
			if err != nil {
				return nil, fmt.Errorf("volatile: vector %d: %w", i, err)
			}
			parsed[i] = v
		}
		return fitTraceModels(s, parsed)
	})
}

// fitTraceModels builds the interned artifact set for a scenario from
// already-parsed vectors: the per-processor belief models fitted to them,
// on a platform keeping the scenario's speeds. Shared by the explicit-vector
// and synthetic-trace paths so the two cannot diverge.
func fitTraceModels(scn *Scenario, vectors []avail.Vector) (*traceModels, error) {
	pl := &platform.Platform{Processors: make([]*platform.Processor, len(vectors))}
	for i, v := range vectors {
		fitted, err := trace.FitMarkov3(v)
		if err != nil {
			return nil, fmt.Errorf("volatile: vector %d: %w", i, err)
		}
		orig := scn.inner.Platform.Processors[i]
		pl.Processors[i] = &platform.Processor{ID: i, W: orig.W, Avail: fitted}
	}
	return &traceModels{vectors: vectors, platform: pl}, nil
}

// vectorProcs rewinds the Runner's pooled replay processes onto the given
// vectors. The returned slice is valid until the next call.
func (r *Runner) vectorProcs(vectors []avail.Vector) []avail.Process {
	p := len(vectors)
	if cap(r.vprocs) < p {
		r.vprocs = make([]avail.VectorProcess, p)
		r.vps = make([]avail.Process, p)
	}
	r.vprocs, r.vps = r.vprocs[:p], r.vps[:p]
	for i, v := range vectors {
		r.vprocs[i].Reset(v)
		r.vps[i] = &r.vprocs[i]
	}
	return r.vps
}

// TraceSource replays traces instead of drawing Markov trajectories: for
// every (cell, scenario, trial) instance a trace set is resolved, Markov
// models are fitted to it (the master's belief for informed heuristics),
// and every heuristic runs against the same replayed vectors. Trace replay
// consumes no RNG, so trial seeds confront both engine modes with
// identical worlds; see EXPERIMENTS.md for when results match bit for bit.
type TraceSource struct {
	// TraceLen is the recorded length of each synthetic availability
	// vector in slots (default 1000; past the end, processors hold their
	// last state). Ignored when TraceFiles is set.
	TraceLen int
	// Style selects the synthetic sojourn family (default TraceWeibull).
	// Ignored when TraceFiles is set.
	Style TraceStyle
	// TraceFiles, when non-empty, replaces synthetic generation with
	// recorded trace sets read from disk (the format trace.Set.Write
	// produces — e.g. converted Failure Trace Archive data, or the output
	// of cmd/volatrace). Trial t of every scenario replays
	// TraceFiles[t mod len(TraceFiles)]; models are fitted once per
	// (scenario, file) through the per-scenario intern cache. Every file
	// must hold exactly Options.Processors vectors (default 20) of length
	// >= 2. Files are content-hashed into the config digest, so a resume
	// against edited trace files is rejected.
	TraceFiles []string
}

// traceSeedSalt separates trace-generation streams from trial streams.
const traceSeedSalt = 0x7ACE5

// resolve loads any recorded trace sets up front, so a misconfigured sweep
// fails before any simulation work, and pins the trace source in the
// digest: the sojourn family and recorded length for synthetic sweeps, the
// full vector content for recorded sets (paths alone would let an edited
// file poison a resume).
func (src TraceSource) resolve(cfg *SweepConfig) (sourcePlan, error) {
	if len(src.TraceFiles) > 0 {
		p := cfg.Options.Processors
		if p == 0 {
			p = workload.DefaultProcessors
		}
		sets, err := loadTraceSets(src.TraceFiles, p)
		if err != nil {
			return sourcePlan{}, err
		}
		extras, err := traceSetDigests(sets)
		if err != nil {
			return sourcePlan{}, err
		}
		return sourcePlan{flavour: "tracesweep", extras: extras,
			traces: func(scn *Scenario, _, _, trialIdx int) (*traceModels, error) {
				// Recorded sets repeat across scenarios (and across trials
				// when Trials > len(sets)): one fit per (scenario, file),
				// shared by every heuristic and trial replaying that file.
				return scn.fileTraceModels(sets, trialIdx%len(sets))
			}}, nil
	}
	traceLen := src.TraceLen
	if traceLen == 0 {
		traceLen = 1000
	}
	if traceLen < 2 {
		return sourcePlan{}, fmt.Errorf("volatile: TraceLen %d too short to fit models (need >= 2)", traceLen)
	}
	seed, style := cfg.Seed, src.Style
	return sourcePlan{flavour: "tracesweep",
		extras: []string{fmt.Sprintf("style %s", style), fmt.Sprintf("tracelen %d", traceLen)},
		traces: func(scn *Scenario, cellIdx, scenIdx, trialIdx int) (*traceModels, error) {
			// Each (scenario, trial) has a unique synthetic set that only
			// this instance's runs share, so it is built uncached and dies
			// with the instance.
			genSeed := deriveSeed(seed, uint64(cellIdx), uint64(scenIdx), uint64(trialIdx), traceSeedSalt)
			return synthTraceModels(scn, genSeed, style, traceLen)
		}}, nil
}

// loadTraceSets reads and validates every trace file up front, so a
// misconfigured sweep fails before any simulation work: each file must
// parse (trace.Read), hold exactly p vectors, and be long enough to fit
// Markov models on.
func loadTraceSets(paths []string, p int) ([]*trace.Set, error) {
	sets := make([]*trace.Set, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("volatile: trace file: %w", err)
		}
		set, err := trace.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("volatile: trace file %s: %w", path, err)
		}
		if got := len(set.Vectors); got != p {
			return nil, fmt.Errorf("volatile: trace file %s has %d vectors for %d processors",
				path, got, p)
		}
		if set.Len() < 2 {
			return nil, fmt.Errorf("volatile: trace file %s: vectors of length %d too short to fit models (need >= 2)",
				path, set.Len())
		}
		sets[i] = set
	}
	return sets, nil
}

// fileTraceModels resolves a recorded trace set through the scenario's
// intern cache, fitting the per-processor belief models on the first
// sighting only. The cache key is the file's index in the sweep's
// TraceFiles list — stable for the sweep's lifetime, which is exactly the
// cache's lifetime (it lives on the Scenario).
func (s *Scenario) fileTraceModels(sets []*trace.Set, idx int) (*traceModels, error) {
	key := "file\x00" + strconv.Itoa(idx)
	return s.traces.models(key, func() (*traceModels, error) {
		return fitTraceModels(s, sets[idx].Vectors)
	})
}

// synthTraceModels generates one synthetic trace set for a scenario and
// fits the per-processor belief models, entirely determined by genSeed.
func synthTraceModels(scn *Scenario, genSeed uint64, style TraceStyle, traceLen int) (*traceModels, error) {
	gen := rng.New(genSeed)
	p := scn.inner.Platform.P()
	vectors := make([]avail.Vector, p)
	for i := 0; i < p; i++ {
		proc, err := trace.NewSynthProcess(gen.Split(), trace.SynthOptions{Style: style})
		if err != nil {
			return nil, fmt.Errorf("volatile: trace style: %w", err)
		}
		vectors[i] = avail.Record(proc, traceLen)
	}
	return fitTraceModels(scn, vectors)
}
