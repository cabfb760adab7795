package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	volatile "repro"
	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/jobs"
	"repro/internal/sweepreq"
)

// served-mix load: cache-hit POST /jobs + GET /jobs/{id}/result pairs at a
// fixed rate, and cold table3x5 submissions with fresh seeds at a fixed
// rate, sized so their sweeps keep the server busy about half the window.
const (
	hitEvery  = 4 * time.Millisecond
	coldEvery = 150 * time.Millisecond // a cold sweep takes ~0.05 s here
	coldStart = 50 * time.Millisecond  // first cold submission after the window opens
	pollEvery = 5 * time.Millisecond   // status polling of a cold job
	coldWait  = 60 * time.Second       // limit for cold jobs to finish after the window
)

// warmRequest is the job every hit asks for; it is cached during set-up.
func warmRequest(seed uint64) sweepreq.Request {
	return sweepreq.Request{Exp: "table3x5", Scenarios: 2, Trials: 2, Seed: seed}
}

// coldRequest is the j-th cold submission: table3x5 at its default size
// with a seed no other submission of the run uses.
func coldRequest(seed uint64, j int) sweepreq.Request {
	return sweepreq.Request{Exp: "table3x5", Scenarios: 2, Trials: 2, Seed: deriveSeed(seed, 0xC01D, uint64(j))}
}

// server is one volaserved process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots volaserved with its default flags, a fresh data
// directory and a loopback address, and waits for /healthz.
func startServer(bin, dataDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(bin, "volaserved"), "-addr", addr, "-data", dataDir)
	cmd.Stdout = os.Stderr // keep standard output for the result
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start volaserved: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			return nil, fmt.Errorf("volaserved exited before it was healthy: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("volaserved not healthy after 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to shut down and waits until it has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited; Wait reports either way
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

type submitReply struct {
	ID      string     `json:"id"`
	State   jobs.State `json:"state"`
	Started bool       `json:"started"`
}

// awaitResult submits req outside the open loop and polls until its result
// is cached, returning the job ID and result digest.
func awaitResult(base string, req sweepreq.Request) (string, string, error) {
	g := &openLoop{client: http.DefaultClient}
	body, _ := json.Marshal(req) // a Request of strings and numbers always encodes
	var sub submitReply
	if code, err := g.call("POST", base+"/jobs", body, &sub); err != nil || code >= 300 {
		return "", "", fmt.Errorf("submit: status %d: %v", code, err)
	}
	deadline := time.Now().Add(coldWait)
	for time.Now().Before(deadline) {
		var st jobs.Status
		if code, err := g.call("GET", base+"/jobs/"+sub.ID, nil, &st); err != nil || code != http.StatusOK {
			return "", "", fmt.Errorf("status: %d: %v", code, err)
		}
		switch st.State {
		case jobs.StateDone:
			var res jobs.CachedResult
			if code, err := g.call("GET", base+"/jobs/"+sub.ID+"/result", nil, &res); err != nil || code != http.StatusOK {
				return "", "", fmt.Errorf("result: %d: %v", code, err)
			}
			return sub.ID, res.ResultDigest, nil
		case jobs.StateFailed, jobs.StateStopped:
			return "", "", fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	return "", "", fmt.Errorf("job %s not done after %v", sub.ID, coldWait)
}

// coldPlan is the replica plan of a cold request, built as sweepreq.Build
// builds a table3x5 sweep.
func coldPlan(req sweepreq.Request, workers int) *sweepPlan {
	return planOf("cold", volatile.Table3Config(5, req.Scenarios, req.Trials, req.Seed), workers)
}

// coldJob is the client's record of one cold submission.
type coldJob struct {
	req           sweepreq.Request
	due, acked    time.Time
	running, done time.Time // first poll that saw the job running / done
	fetched       time.Time
	id, digest    string
	started, ok   bool
	err           string
}

func runServedMix(e *runEnv) (*report, error) {
	rep := newReport()
	warm := warmRequest(e.seed)

	// Set-up: boot to healthy, then the warm job computed and cached.
	var setups []float64
	var srv *server
	var warmID, warmDigest string
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		t := time.Now()
		s, err := startServer(e.bin, filepath.Join(e.scratch, fmt.Sprintf("data%d", i)))
		if err != nil {
			return nil, err
		}
		srv = s
		if warmID, warmDigest, err = awaitResult(srv.base, warm); err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm job: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer srv.stop()

	pid := srv.cmd.Process.Pid
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostTicks()
	hits, colds, window, g, err := driveServedMix(e, srv.base, warmID, warmDigest)
	if err != nil {
		return nil, err
	}
	// The server's CPU time from the window's start until its last cold
	// job was done: the hits and the sweeps together.
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	cpu := cpu1 - cpu0
	steal := stealFrac(steal0, total0)
	rss, err := vmHWM(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return nil, err
	}

	// Correctness: the warm digest and every cold digest re-derived here.
	built, err := sweepreq.Build(warm)
	if err != nil {
		return nil, err
	}
	res, err := built.Run(sweepreq.RunOpts{})
	if err != nil {
		return nil, err
	}
	rep.check(res.Digest() == warmDigest, "warm job digest %.16s re-derived in process", warmDigest)
	wrong := 0
	var lat, service, late []float64
	for _, h := range hits {
		rep.attempted++
		if !h.ok {
			rep.failed++
		}
		if h.wrong {
			wrong++
		}
		lat = append(lat, h.latencyMs())
		service = append(service, float64(h.end.Sub(h.start))/1e6)
		late = append(late, h.lateMs())
	}
	rep.check(wrong == 0, "%d of %d hits answered with another job or digest than the warm job's", wrong, len(hits))

	ckDir := filepath.Join(e.scratch, "rederive")
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return nil, err
	}
	var turnaround, queueWait []float64
	var runs, slots int64
	busy := 0.0
	ck := ckLedger{}
	started := 0
	for j, c := range colds {
		rep.attempted++
		if !c.ok {
			rep.failed++
			rep.check(false, "cold job %d: %s", j, c.err)
			continue
		}
		if c.started {
			started++
		}
		digest, err := rederive(c.req, filepath.Join(ckDir, strconv.Itoa(j)+".ckpt"), &ck, e.trace)
		if err != nil {
			return nil, err
		}
		// The replica counts the job's simulated slots, which the service
		// does not report.
		res, counts, err := replicaPass(coldPlan(c.req, e.workers), false)
		if err != nil {
			return nil, err
		}
		rep.check(digest == c.digest && res.Digest() == c.digest,
			"cold job %d digest %.16s re-derived in process (library and replica)", j, c.digest)
		turnaround = append(turnaround, c.fetched.Sub(c.due).Seconds())
		runs += counts.runs
		slots += counts.slots
		queueWait = append(queueWait, float64(c.running.Sub(c.acked))/1e6)
		busy += c.done.Sub(c.acked).Seconds()
	}
	if len(turnaround) == 0 {
		return nil, errors.New("no cold job completed")
	}
	v := rep.values
	if !e.trace {
		v["setup_s"] = median(setups)
		v["slots_per_cpu_s"] = float64(slots) / cpu
		v["peak_rss_mb"] = rss
		rep.note("slots_per_s", float64(slots)/sum(turnaround), "1/s", fmt.Sprintf("%d slots in cold jobs, per second of their turnaround; server CPU %.3g s", slots, cpu))
		rep.note("host_steal_frac", steal, "frac", "CPU time the hypervisor took from this machine during the window")
		rep.note("hit_p50_ms", median(lat), "ms", fmt.Sprintf("%d cache-hit pairs, timed from when due", len(lat)))
		rep.note("hit_p99_ms", quantile(lat, 0.99), "ms", fmt.Sprintf("%d cache-hit pairs", len(lat)))
		rep.note("job_p50_s", median(turnaround), "s", fmt.Sprintf("%d cold jobs, due to result fetched", len(turnaround)))
		rep.note("runs_per_s", float64(runs)/sum(turnaround), "1/s", fmt.Sprintf("%d runs of %d slots in cold jobs", runs, slots))
		rep.note("gen.late_ms", quantile(late, 0.99), "ms", "p99 of hit send lateness")
		rep.note("jobs.busy_frac", busy/window.Seconds(), "frac", "cold jobs submitted to done, over the window")
		return rep, nil
	}

	// Traced run: the same window, then the in-process layer timings. The
	// sweep-engine layers run in the server, out of reach: they read 0.
	zeroLayers(v)
	if err := inProcessLayers(e, warm, v); err != nil {
		return nil, err
	}
	v["checkpoint.writes"] = float64(ck.writes)
	v["checkpoint.bytes"] = float64(ck.bytes)
	v["checkpoint.save_ms"] = ck.saveMs
	v["checkpoint.load_ms"] = ck.loadMs
	v["jobs.sweeps_started"] = float64(started)
	v["jobs.queue_wait_ms"] = median(queueWait)
	v["jobs.busy_frac"] = busy / window.Seconds()
	v["volaserved.requests"] = float64(g.requests.Load())
	v["volaserved.overhead_us"] = median(service)*1000 - v["jobs.submit_hit_us"] - v["jobs.result_us"]
	v["gen.late_ms"] = quantile(late, 0.99)
	return rep, nil
}

// driveServedMix runs the open-loop window against the server and waits for
// every cold job it submitted. It returns the hit samples, the cold jobs,
// the window length and the generator.
func driveServedMix(e *runEnv, base, warmID, warmDigest string) ([]sample, []*coldJob, time.Duration, *openLoop, error) {
	g := newOpenLoop(e.workers)
	warmBody, _ := json.Marshal(warmRequest(e.seed)) // always encodes, as above
	window := time.Duration(e.seconds * float64(time.Second))
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(window)
	hits := make([]sample, int(window/hitEvery)+1)

	hitTask := func(i int, due time.Time) task {
		return func(g *openLoop) {
			s := sample{due: due, start: time.Now()}
			var sub submitReply
			code, err := g.call("POST", base+"/jobs", warmBody, &sub)
			if err == nil && code == http.StatusOK {
				var res jobs.CachedResult
				code, err = g.call("GET", base+"/jobs/"+warmID+"/result", nil, &res)
				s.ok = err == nil && code == http.StatusOK
				s.wrong = s.ok && (sub.ID != warmID || sub.State != jobs.StateDone || res.ResultDigest != warmDigest)
			}
			s.end = time.Now()
			hits[i] = s
		}
	}

	var colds []*coldJob // appended by the cold pacer only
	var coldWG sync.WaitGroup
	var poll func(c *coldJob) task
	finish := func(c *coldJob, err error) {
		if err != nil {
			c.err = err.Error()
		}
		coldWG.Done()
	}
	// A poll is enqueued when it falls due, so no worker waits on it.
	schedulePoll := func(c *coldJob) {
		time.AfterFunc(pollEvery, func() { g.enqueue(poll(c)) })
	}
	poll = func(c *coldJob) task {
		return func(g *openLoop) {
			var st jobs.Status
			code, err := g.call("GET", base+"/jobs/"+c.id, nil, &st)
			now := time.Now()
			if err != nil || code != http.StatusOK {
				finish(c, fmt.Errorf("status: %d: %v", code, err))
				return
			}
			if st.State != jobs.StateQueued && c.running.IsZero() {
				c.running = now
			}
			switch st.State {
			case jobs.StateDone:
				c.done = now
				var res jobs.CachedResult
				code, err := g.call("GET", base+"/jobs/"+c.id+"/result", nil, &res)
				c.fetched = time.Now()
				if err != nil || code != http.StatusOK {
					finish(c, fmt.Errorf("result: %d: %v", code, err))
					return
				}
				c.digest, c.ok = res.ResultDigest, true
				finish(c, nil)
			case jobs.StateFailed, jobs.StateStopped:
				finish(c, fmt.Errorf("ended %s: %s", st.State, st.Error))
			default:
				schedulePoll(c)
			}
		}
	}
	coldTask := func(j int, due time.Time) task {
		c := &coldJob{req: coldRequest(e.seed, j), due: due}
		colds = append(colds, c)
		coldWG.Add(1)
		return func(g *openLoop) {
			body, _ := json.Marshal(c.req) // always encodes, as above
			var sub submitReply
			code, err := g.call("POST", base+"/jobs", body, &sub)
			c.acked = time.Now()
			if err != nil || code >= 300 {
				finish(c, fmt.Errorf("submit: %d: %v", code, err))
				return
			}
			c.id, c.started = sub.ID, sub.Started
			schedulePoll(c)
		}
	}

	var pacers sync.WaitGroup
	nHits := 0
	pacers.Add(2)
	go func() { defer pacers.Done(); nHits = pace(g, start, end, hitEvery, hitTask) }()
	go func() { defer pacers.Done(); pace(g, start.Add(coldStart), end, coldEvery, coldTask) }()
	pacers.Wait()
	waited := make(chan struct{})
	go func() { coldWG.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(coldWait):
		// Polls of the unfinished jobs are still live, so the generator
		// cannot be closed; the process exits on this error.
		return nil, nil, 0, nil, fmt.Errorf("cold jobs not done %v after the window", coldWait)
	}
	g.close()
	return hits[:nHits], colds, window, g, nil
}

// ckLedger accumulates the checkpoint writes of the re-derived cold jobs.
type ckLedger struct {
	writes         int
	bytes          int64
	saveMs, loadMs float64
}

// rederive reruns a cold job in process and returns its digest. Traced, it
// also checkpoints to path as the server does, counting each write through
// the fault-injection hook (which the pipeline calls before every write and
// which injects nothing here), and times Save and Load of the final one.
func rederive(req sweepreq.Request, path string, ck *ckLedger, traced bool) (string, error) {
	built, err := sweepreq.Build(req)
	if err != nil {
		return "", err
	}
	opts := sweepreq.RunOpts{}
	if traced {
		opts.Checkpoint = &volatile.CheckpointConfig{Path: path}
		opts.Faults = &faultinject.Plan{Checkpoint: func(int) error {
			ck.writes++
			if st, err := os.Stat(path); err == nil {
				ck.bytes += st.Size() // the previous write, complete: writes are atomic renames
			}
			return nil
		}}
	}
	res, err := built.Run(opts)
	if err != nil {
		return "", err
	}
	if traced {
		st, err := os.Stat(path)
		if err != nil {
			return "", err
		}
		ck.bytes += st.Size()
		var saves, loads []float64
		for i := 0; i < 20; i++ {
			t := time.Now()
			snap, err := checkpoint.Load(path)
			if err != nil {
				return "", err
			}
			loads = append(loads, float64(time.Since(t))/1e6)
			t = time.Now()
			if err := checkpoint.Save(path, snap); err != nil {
				return "", err
			}
			saves = append(saves, float64(time.Since(t))/1e6)
		}
		ck.saveMs, ck.loadMs = median(saves), median(loads)
	}
	return res.Digest(), nil
}

// inProcessLayers times the calls a cache-hit request makes below HTTP:
// sweepreq.Build of the request, jobs.Scheduler.Submit of a cached job, and
// the lookup of its result.
func inProcessLayers(e *runEnv, warm sweepreq.Request, v map[string]float64) error {
	const n = 2000
	var build []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := sweepreq.Build(warm); err != nil {
			return err
		}
		build = append(build, float64(time.Since(t))/1e3)
	}
	sched, err := jobs.New(jobs.Options{DataDir: filepath.Join(e.scratch, "inproc")})
	if err != nil {
		return err
	}
	defer sched.Stop()
	job, _, err := sched.Submit(warm)
	if err != nil {
		return err
	}
	for job.State() != jobs.StateDone {
		if st := job.State(); st == jobs.StateFailed || st == jobs.StateStopped {
			return fmt.Errorf("in-process warm job %s", st)
		}
		time.Sleep(time.Millisecond)
	}
	var submit, result []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, _, err := sched.Submit(warm); err != nil {
			return err
		}
		submit = append(submit, float64(time.Since(t))/1e3)
		t = time.Now()
		j, ok := sched.Get(job.Digest)
		if !ok {
			return errors.New("in-process job vanished")
		}
		if _, ok := j.Result(); !ok {
			return errors.New("in-process job has no result")
		}
		result = append(result, float64(time.Since(t))/1e3)
	}
	v["sweepreq.build_us"] = median(build)
	v["jobs.submit_hit_us"] = median(submit)
	v["jobs.result_us"] = median(result)
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
