package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	volatile "repro"
	"repro/internal/avail"
	"repro/internal/sim"
	"repro/internal/sweepreq"
)

// TestMetricListsMatchBenchmarkJSON keeps the metric and workload names the
// program prints in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(label string, got []metricDef, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", label, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %v, BENCHMARK.json %v", label, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, bj.EndToEnd)
	same("per_layer", perLayer, bj.PerLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("program has %d workloads, BENCHMARK.json %d", len(workloads), len(bj.Workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}

// smallPlans are the sweep workloads cut down to test size: every tenth
// cell of the paper grid, and the volunteer grid at P = 1,000.
func smallPlans(seed uint64) []*sweepPlan {
	e := &runEnv{seed: seed, workers: 2}
	paper, mold := paperGrid(e), moldableGrid(e)
	var cells []volatile.Cell
	for i := 0; i < len(paper.cells); i += 10 {
		cells = append(cells, paper.cells[i])
	}
	paper.cells, mold.cells = cells, cells
	lp := volatile.LargePConfig(1000, 1, 1, seed)
	lp.Mode = volatile.ModeEvent
	return []*sweepPlan{paper, planOf("volunteer-grid", lp, 2), mold}
}

// TestTracedDigestEqualsUntraced runs each sweep workload through the
// library pipeline and through the replica, plain and instrumented: all
// three must produce the same result digest. The served workload's cold
// jobs are checked the same way against sweepreq.Build(req).Run.
func TestTracedDigestEqualsUntraced(t *testing.T) {
	for _, p := range smallPlans(7) {
		lib, err := p.run(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, instrument := range []bool{false, true} {
			res, _, err := replicaPass(p, instrument)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest() != lib.Digest() {
				t.Errorf("%s (instrumented %v): replica digest %.16s, library %.16s", p.name, instrument, res.Digest(), lib.Digest())
			}
		}
	}
	req := coldRequest(7, 3)
	built, err := sweepreq.Build(req)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := built.Run(sweepreq.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := replicaPass(coldPlan(req, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest() != lib.Digest() {
		t.Errorf("cold job: replica digest %.16s, library %.16s", res.Digest(), lib.Digest())
	}
}

// TestExactCountsRepeat checks that two instrumented passes of one seed
// count the same draws, picks, slots and allocation decisions, and that
// allocation decisions occur on the moldable workload only.
func TestExactCountsRepeat(t *testing.T) {
	for _, p := range smallPlans(11) {
		_, a, err := replicaPass(p, true)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := replicaPass(p, true)
		if err != nil {
			t.Fatal(err)
		}
		if a.exact() != b.exact() {
			t.Errorf("%s: counts %v then %v", p.name, a.exact(), b.exact())
		}
		if a.draws == 0 || a.picks == 0 || a.slots == 0 {
			t.Errorf("%s: empty counts %v", p.name, a.exact())
		}
		if moldable := p.alloc != ""; moldable != (a.decisions > 0) {
			t.Errorf("%s: %d allocation decisions", p.name, a.decisions)
		}
	}
}

type fakeScheduler struct{}

func (fakeScheduler) Name() string                                             { return "fake" }
func (fakeScheduler) Pick(*sim.View, []int, *sim.RoundState, sim.TaskInfo) int { return 0 }

type fakePoolable struct{ fakeScheduler }

func (fakePoolable) PoolSafe() bool { return true }

type fakeCanceller struct{ fakeScheduler }

func (fakeCanceller) Cancel(*sim.View) []int { return nil }

type fakeBoth struct{ fakeScheduler }

func (fakeBoth) PoolSafe() bool         { return false }
func (fakeBoth) Cancel(*sim.View) []int { return nil }

type fakeProcess struct{}

func (fakeProcess) Next() avail.State { return avail.Up }

type fakeTrajectory struct{ fakeProcess }

func (fakeTrajectory) NextTransition() (avail.State, int) { return avail.Up, avail.Forever }

// TestWrappersForwardOptionalInterfaces checks that a wrapper implements
// sim.Poolable, sim.Canceller and avail.Trajectory exactly when the wrapped
// value does, and reports the wrapped value's PoolSafe answer.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	var c layerCounts
	for _, s := range []sim.Scheduler{fakeScheduler{}, fakePoolable{}, fakeCanceller{}, fakeBoth{}} {
		w := wrapScheduler(s, &c)
		_, innerPool := s.(sim.Poolable)
		_, innerCancel := s.(sim.Canceller)
		_, pool := w.(sim.Poolable)
		_, cancel := w.(sim.Canceller)
		if pool != innerPool || cancel != innerCancel || sim.PoolSafe(w) != sim.PoolSafe(s) {
			t.Errorf("%T: wrapper poolable %v canceller %v safe %v, inner %v %v %v",
				s, pool, cancel, sim.PoolSafe(w), innerPool, innerCancel, sim.PoolSafe(s))
		}
	}
	var pw procWrappers
	procs := pw.wrap([]avail.Process{fakeProcess{}, fakeTrajectory{}}, &c.draws)
	if _, ok := procs[0].(avail.Trajectory); ok {
		t.Error("wrapper of a plain Process is a Trajectory")
	}
	tr, ok := procs[1].(avail.Trajectory)
	if !ok {
		t.Fatal("wrapper of a Trajectory is not one")
	}
	procs[0].Next()
	tr.NextTransition()
	if c.draws != 2 {
		t.Errorf("draws = %d, want 2", c.draws)
	}
}

// TestOpenLoopShowsStall drives an httptest server that stalls once for
// 200 ms. Requests due during the stall queue behind it, and because each
// is timed from when it was due, their latency shows the stall.
func TestOpenLoopShowsStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var mu sync.Mutex // the stall holds it, as a stop-the-world pause would
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	g := newOpenLoop(2)
	const count = 200
	samples := make([]sample, count)
	start := time.Now()
	sent := pace(g, start, start.Add(count*time.Millisecond), time.Millisecond, func(i int, due time.Time) task {
		return func(g *openLoop) {
			s := sample{due: due, start: time.Now()}
			code, err := g.call("GET", srv.URL, nil, nil)
			s.end, s.ok = time.Now(), err == nil && code == http.StatusOK
			samples[i] = s
		}
	})
	g.close()
	if sent != count {
		t.Fatalf("sent %d of %d", sent, count)
	}
	// The request due 50 ms after the stalled one waited for most of it.
	stalled := -1
	for i, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", i)
		}
		if stalled < 0 && s.end.Sub(s.start) >= stall {
			stalled = i
		}
	}
	if stalled < 0 || stalled+50 >= count {
		t.Fatalf("no stalled request found (index %d)", stalled)
	}
	if got := samples[stalled+50].latencyMs(); got < 100 {
		t.Errorf("request due 50 ms into the stall: latency %.1f ms, want >= 100", got)
	}
	if got := samples[stalled+50].lateMs(); got < 50 {
		t.Errorf("request due 50 ms into the stall: sent %.1f ms late, want >= 50", got)
	}
}

func spin(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

var sink int

// TestSelfByPackage profiles a busy loop in this package and checks that
// the decoder attributes most of the samples to this package.
func TestSelfByPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sink = spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	self, err := selfByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range self {
		total += s
	}
	pkg := packageOf(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if total == 0 || self[pkg] < total/2 {
		t.Errorf("self time by package %v: want most of it in %s", self, pkg)
	}
	for sym, want := range map[string]string{
		"repro/internal/sim.(*engine).step": "repro/internal/sim",
		"repro.RunSweep.func1":              "repro",
		"runtime.mallocgc":                  "runtime",
		"internal/runtime/maps.(*Map).Get":  "internal/runtime/maps",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}
