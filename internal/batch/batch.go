// Package batch implements a batch-scheduling baseline for the iterative
// application, the comparison point of "Dynamic Fractional Resource
// Scheduling vs. Batch Scheduling" (Casanova, Stillwell, Vivien): every
// task of the current iteration is submitted as a rigid single-node job
// that holds an exclusive whole-worker reservation for its lifetime. The
// scheduler is availability-aware only in the crudest way a production
// batch system is — it will not dispatch onto a node it can see is
// offline, and it kills and resubmits jobs whose node crashes — but it
// never migrates, never replicates, never preempts, and plans with
// optimistic runtime estimates that ignore volatility and master-link
// contention. Running it on the exact availability trajectories the
// fractional heuristics face quantifies what the paper's fine-grained
// scheduling buys over conventional batch allocation.
//
// Two dispatch disciplines are provided:
//
//   - FCFS: jobs start strictly in queue order. The head job is placed on
//     the worker with the smallest estimated completion time (estimated
//     free time + estimated service time); if that worker is busy the head
//     waits for it — and, FCFS being FCFS, every job behind the head waits
//     too, even while slower workers sit idle.
//   - EASY: identical head placement, but while the head waits for its
//     reserved worker, jobs behind it backfill onto idle UP workers. A
//     backfilled single-node job never touches the head's reservation, so
//     under the scheduler's own optimistic estimates backfilling never
//     delays the queue head (as in classic EASY, volatility can break the
//     guarantee after the fact: if the reserved worker crashes, a worker
//     that backfilling occupied might have served the head sooner).
//
// The engine shares the paper's machine model (discrete slots, UP /
// RECLAIMED / DOWN workers, program + per-task data transfers bounded by
// the master's ncom budget) and the fractional engine's availability
// clock (avail.Clock), so batch and fractional runs of one Mode on the same
// processes are comparable slot for slot.
package batch

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/avail"
	"repro/internal/platform"
)

// Discipline selects the dispatch rule.
type Discipline int

const (
	// FCFS starts jobs strictly in queue order (head-of-line blocking).
	FCFS Discipline = iota
	// EASY is FCFS plus EASY backfilling around a blocked queue head.
	EASY
)

// String names the discipline.
func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case EASY:
		return "easy"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Config assembles everything one batch run needs.
type Config struct {
	// Platform is the static processor description (speeds are used for
	// service-time estimates and compute progress; the per-processor Markov
	// models are ignored — batch schedulers do not model volatility).
	Platform *platform.Platform
	// Params are the application/communication parameters. MaxReplicas is
	// ignored: batch jobs are never replicated.
	Params platform.Params
	// Procs supplies the actual availability trajectory of each processor,
	// in platform order — pass the same trajectories a fractional run saw
	// to compare the two on identical worlds.
	Procs []avail.Process
	// Mode selects how availability is sampled (see avail.Mode); event
	// mode requires Procs that implement avail.Trajectory.
	Mode avail.Mode
	// Discipline selects FCFS or EASY dispatch.
	Discipline Discipline
	// Observer, when non-nil, is invoked after every slot with a reused
	// report (valid only during the callback). Tests use it to check
	// reservation invariants.
	Observer func(*SlotReport)
}

func (c *Config) validate() error {
	if c.Platform == nil {
		return fmt.Errorf("batch: nil platform")
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if len(c.Procs) != c.Platform.P() {
		return fmt.Errorf("batch: %d availability processes for %d processors",
			len(c.Procs), c.Platform.P())
	}
	switch c.Discipline {
	case FCFS, EASY:
	default:
		return fmt.Errorf("batch: unknown discipline %d", int(c.Discipline))
	}
	return nil
}

// Stats carries the resource counters of a batch run.
type Stats struct {
	// Kills counts jobs killed because their worker went DOWN; every
	// killed job is requeued once.
	Kills int
	// JobsDispatched counts job starts (first dispatch + re-dispatches).
	JobsDispatched int
	// Backfills is the subset of JobsDispatched that started via EASY
	// backfilling while the queue head was waiting (always 0 under FCFS).
	Backfills int
	// TasksCompleted counts task completions (m per iteration).
	TasksCompleted int
	// ChannelSlots is the total number of channel-slots spent transferring
	// (program + data, including work later wasted by kills).
	ChannelSlots int64
	// ComputeSlots is the total number of UP slots spent computing.
	ComputeSlots int64
	// SuspendedSlots counts slots a dispatched job sat on a non-UP worker,
	// holding its exclusive reservation without progressing.
	SuspendedSlots int64
	// PeakTransfers is the maximum number of simultaneous transfers in any
	// slot (never exceeds ncom).
	PeakTransfers int
}

// Result is the outcome of one batch run.
type Result struct {
	// Completed reports whether all iterations finished within the slot cap.
	Completed bool
	// Makespan is the number of slots consumed. When Completed is false it
	// equals the cap and the run is censored.
	Makespan int
	// IterationEnds[i] is the slot count at which iteration i completed.
	IterationEnds []int
	// Stats carries the resource counters.
	Stats Stats
}

// JobView is one running job in a SlotReport.
type JobView struct {
	// Task is the job's task index within the current iteration.
	Task int
	// Worker is the exclusively reserved worker.
	Worker int
	// ID is the job's submission sequence number (FIFO order; requeued
	// jobs get a fresh, larger ID).
	ID int
	// Transferring reports whether the job still needs channel slots.
	Transferring bool
}

// SlotReport is the per-slot observer payload. The struct and its slices
// are reused between slots.
type SlotReport struct {
	// Slot is the 0-based slot just simulated.
	Slot int
	// Iteration is the current iteration (0-based).
	Iteration int
	// Running lists the dispatched jobs, in worker order.
	Running []JobView
	// QueueLen is the number of jobs still waiting.
	QueueLen int
	// ActiveTransfers is the number of channel slots used this slot.
	ActiveTransfers int
	// Kills is the number of jobs killed this slot.
	Kills int
}

// queuedJob is one waiting job.
type queuedJob struct {
	task int
	id   int
}

// workerState is the per-worker engine state (its availability is the
// clock's State).
type workerState struct {
	hasProgram bool
	busy       bool
	// Job fields, meaningful while busy.
	task     int
	jobID    int
	progLeft int
	dataLeft int
	workLeft int
}

// transferring reports whether the worker's job still needs the master.
func (w *workerState) transferring() bool {
	return w.busy && w.progLeft+w.dataLeft > 0
}

// estRemaining is the scheduler's optimistic estimate of the slots the
// worker's current job still needs (ignores volatility and contention).
func (w *workerState) estRemaining() int {
	return w.progLeft + w.dataLeft + w.workLeft
}

// engine is the mutable run state. Its buffers survive between runs via
// Runner, so steady-state slots allocate nothing.
type engine struct {
	cfg     Config
	params  *platform.Params
	workers []workerState
	queue   []queuedJob
	// qHead indexes the logical queue front inside queue (amortized O(1)
	// pops without resliced-away reuse; compacted when drained).
	qHead     int
	nextJobID int
	tasksDone int
	iter      int
	slot      int
	stats     Stats
	ends      []int
	// xfer is the per-slot channel-allocation scratch (worker indices,
	// sorted by job ID).
	xfer []int
	// report is the reused observer payload.
	report SlotReport
	// clock drives cfg.Procs; crash applies the changes it reports, and
	// kills counts the jobs it killed this slot.
	clock avail.Clock
	kills int
}

// Run executes one batch run with a throwaway engine.
func Run(cfg Config) (*Result, error) {
	var e engine
	return e.run(cfg)
}

// Runner wraps a reusable engine for tight loops (sweeps, benchmarks):
// worker tables, the job queue and scratch buffers are recycled across
// runs. Results are identical to Run's. A Runner must not be shared
// between goroutines.
type Runner struct {
	e engine
}

// NewRunner returns a reusable Runner; its first run sizes the buffers.
func NewRunner() *Runner { return &Runner{} }

// Run executes one batch run, reusing the Runner's buffers.
func (r *Runner) Run(cfg Config) (*Result, error) {
	return r.e.run(cfg)
}

func (e *engine) run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e.reset(cfg)
	maxSlots := e.params.EffectiveMaxSlots()
	if err := e.clock.Start(cfg.Procs, cfg.Mode, maxSlots); err != nil {
		return nil, err
	}
	for e.slot = 0; e.slot < maxSlots; e.slot++ {
		e.kills = 0
		if err := e.clock.Advance(e.slot, e.crash); err != nil {
			return nil, err
		}
		e.dispatch()
		// Compute before transferring: progress reads the pre-transfer
		// counters, so a slot spent receiving the last program/data unit is
		// never also a compute slot (a worker communicates or computes in a
		// slot, not both — matching the fractional engine's model).
		e.progress()
		transfers := e.allocateChannels()
		if e.cfg.Observer != nil {
			e.observe(transfers)
		}
		if e.barrier() {
			return e.result(true), nil
		}
	}
	e.slot = maxSlots
	return e.result(false), nil
}

// reset prepares the engine for a fresh run on cfg, reusing buffers.
func (e *engine) reset(cfg Config) {
	e.cfg = cfg
	e.params = &e.cfg.Params
	p := cfg.Platform.P()
	if cap(e.workers) < p {
		e.workers = make([]workerState, p)
	}
	e.workers = e.workers[:p]
	for i := range e.workers {
		e.workers[i] = workerState{}
	}
	e.queue = e.queue[:0]
	e.qHead = 0
	e.nextJobID = 0
	e.tasksDone = 0
	e.iter = 0
	e.slot = 0
	e.stats = Stats{}
	e.ends = e.ends[:0]
	e.enqueueIteration()
}

// enqueueIteration submits the m tasks of the next iteration in task order.
func (e *engine) enqueueIteration() {
	for t := 0; t < e.params.M; t++ {
		e.enqueue(t)
	}
}

// enqueue appends one job for task t with a fresh submission ID.
func (e *engine) enqueue(t int) {
	e.queue = append(e.queue, queuedJob{task: t, id: e.nextJobID})
	e.nextJobID++
}

// queueLen reports the number of waiting jobs.
func (e *engine) queueLen() int { return len(e.queue) - e.qHead }

// popHead removes the queue head (callers ensure the queue is non-empty).
func (e *engine) popHead() {
	e.qHead++
	if e.qHead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qHead = 0
	}
}

// crash applies worker q's state change s from the clock. Going DOWN wipes
// the worker's program copy and kills its job, whose task is resubmitted at
// the queue tail (a batch resubmission: new arrival, new ID). Nothing is
// ever dispatched onto an offline worker, so a worker that stays DOWN has
// nothing more to lose.
func (e *engine) crash(q int, s avail.State) {
	if s != avail.Down {
		return
	}
	w := &e.workers[q]
	w.hasProgram = false
	if !w.busy {
		return
	}
	w.busy = false
	e.stats.Kills++
	e.kills++
	e.enqueue(w.task)
}

// estService is the scheduler's optimistic service-time estimate for a job
// on worker q: program (if q lacks it) + data + compute at full
// availability, ignoring master-link contention.
func (e *engine) estService(q int) int {
	est := e.params.Tdata + e.cfg.Platform.Processors[q].W
	if !e.workers[q].hasProgram {
		est += e.params.Tprog
	}
	return est
}

// placeHead finds the worker minimizing the head job's estimated
// completion time: estimated free time (0 for an idle UP worker, the
// optimistic remaining service for a busy worker, never for an idle
// offline worker) plus estimated service. Ties break toward the lowest
// worker ID. ok is false when no worker is usable at all.
func (e *engine) placeHead() (best int, bestFree int, ok bool) {
	bestCompletion := math.MaxInt
	for q := range e.workers {
		w := &e.workers[q]
		var free int
		switch {
		case w.busy:
			free = w.estRemaining()
		case e.clock.State(q) == avail.Up:
			free = 0
		default:
			continue // idle offline worker: unschedulable until it returns
		}
		var est int
		if w.busy {
			// A busy worker will hold the program once its current job's
			// transfer completes — unless it crashes, which the optimistic
			// estimate ignores — so the next job pays no Tprog.
			est = e.params.Tdata + e.cfg.Platform.Processors[q].W
		} else {
			est = e.estService(q)
		}
		if c := free + est; c < bestCompletion {
			bestCompletion, best, bestFree, ok = c, q, free, true
		}
	}
	return best, bestFree, ok
}

// start dispatches the given queued job onto worker q (idle and UP).
func (e *engine) start(j queuedJob, q int, backfill bool) {
	w := &e.workers[q]
	w.busy = true
	w.task = j.task
	w.jobID = j.id
	w.progLeft = 0
	if !w.hasProgram {
		w.progLeft = e.params.Tprog
	}
	w.dataLeft = e.params.Tdata
	w.workLeft = e.cfg.Platform.Processors[q].W
	e.stats.JobsDispatched++
	if backfill {
		e.stats.Backfills++
	}
}

// dispatch assigns queued jobs to workers under the configured discipline.
//
// Both disciplines place the queue head on the worker with the smallest
// estimated completion time; when that worker is busy the head waits for
// it (holding a reservation). Under FCFS everything behind the head waits
// too; under EASY the jobs behind it backfill, in queue order, onto idle
// UP workers — none of which is the head's reserved worker (that one is
// busy), so backfilling cannot delay the head's estimated start (see the
// package comment for the crash caveat).
func (e *engine) dispatch() {
	for e.queueLen() > 0 {
		head := e.queue[e.qHead]
		q, free, ok := e.placeHead()
		if !ok {
			return // every worker idle and offline: nothing to do
		}
		if free > 0 {
			// Head reserves busy worker q and waits for it.
			if e.cfg.Discipline == EASY {
				e.backfill()
			}
			return
		}
		e.start(head, q, false)
		e.popHead()
	}
}

// backfill starts jobs behind the blocked head on idle UP workers, in
// queue order, each on the idle worker with its smallest estimated
// service. The head's reserved worker is busy, so it is never a candidate.
func (e *engine) backfill() {
	for i := e.qHead + 1; i < len(e.queue); i++ {
		best, bestEst := -1, math.MaxInt
		for q := range e.workers {
			w := &e.workers[q]
			if w.busy || e.clock.State(q) != avail.Up {
				continue
			}
			if est := e.estService(q); est < bestEst {
				best, bestEst = q, est
			}
		}
		if best < 0 {
			return // no idle UP worker left
		}
		e.start(e.queue[i], best, true)
		copy(e.queue[i:], e.queue[i+1:])
		e.queue = e.queue[:len(e.queue)-1]
		i--
	}
}

// allocateChannels grants up to ncom channel slots to transferring jobs on
// UP workers, in job-submission order (FIFO priority on the master link),
// and advances their transfers. Returns the number of channels used.
func (e *engine) allocateChannels() int {
	e.xfer = e.xfer[:0]
	for q := range e.workers {
		w := &e.workers[q]
		if w.transferring() && e.clock.State(q) == avail.Up {
			e.xfer = append(e.xfer, q)
		}
	}
	sort.Slice(e.xfer, func(a, b int) bool {
		return e.workers[e.xfer[a]].jobID < e.workers[e.xfer[b]].jobID
	})
	n := len(e.xfer)
	if n > e.params.Ncom {
		n = e.params.Ncom
	}
	for _, q := range e.xfer[:n] {
		w := &e.workers[q]
		if w.progLeft > 0 {
			w.progLeft--
			if w.progLeft == 0 {
				w.hasProgram = true
			}
		} else {
			w.dataLeft--
		}
		e.stats.ChannelSlots++
	}
	if n > e.stats.PeakTransfers {
		e.stats.PeakTransfers = n
	}
	return n
}

// progress advances computation on UP workers whose transfer is complete
// and completes finished tasks; non-UP busy workers accrue suspended time.
func (e *engine) progress() {
	for q := range e.workers {
		w := &e.workers[q]
		if !w.busy {
			continue
		}
		if e.clock.State(q) != avail.Up {
			e.stats.SuspendedSlots++
			continue
		}
		if w.progLeft+w.dataLeft > 0 {
			continue // still transferring (or waiting for a channel)
		}
		w.workLeft--
		e.stats.ComputeSlots++
		if w.workLeft == 0 {
			w.busy = false
			e.tasksDone++
			e.stats.TasksCompleted++
		}
	}
}

// barrier checks the iteration barrier; it reports whether the whole run
// is complete.
func (e *engine) barrier() bool {
	if e.tasksDone < e.params.M {
		return false
	}
	e.tasksDone = 0
	e.ends = append(e.ends, e.slot+1)
	e.iter++
	if e.iter == e.params.Iterations {
		return true
	}
	e.enqueueIteration()
	return false
}

// observe fills and delivers the reused SlotReport.
func (e *engine) observe(transfers int) {
	r := &e.report
	r.Slot = e.slot
	r.Iteration = e.iter
	r.Running = r.Running[:0]
	for q := range e.workers {
		w := &e.workers[q]
		if !w.busy {
			continue
		}
		r.Running = append(r.Running, JobView{
			Task: w.task, Worker: q, ID: w.jobID, Transferring: w.transferring(),
		})
	}
	r.QueueLen = e.queueLen()
	r.ActiveTransfers = transfers
	r.Kills = e.kills
	e.cfg.Observer(r)
}

// result builds the Result (IterationEnds is copied so the engine can be
// reused).
func (e *engine) result(completed bool) *Result {
	res := &Result{
		Completed:     completed,
		Makespan:      e.slot,
		IterationEnds: append([]int(nil), e.ends...),
		Stats:         e.stats,
	}
	if completed {
		res.Makespan = e.ends[len(e.ends)-1]
	}
	return res
}
