package sim

import (
	"repro/internal/expect"
	"repro/internal/platform"
)

// copyState is one live copy (original or replica) of a task on a worker.
type copyState struct {
	// task is the task index within the current iteration.
	task int
	// replica is the copy number: 0 for the original, 1.. for replicas.
	replica int
	// dataRecv counts the data slots already received.
	dataRecv int
	// dataDone is set once the full Tdata slots have been received.
	dataDone bool
	// computeDone counts the UP compute slots already spent.
	computeDone int
}

// workerState is the dynamic state of one worker processor. The
// availability state itself lives in the engine's struct-of-arrays
// e.states (one byte per worker): the hot loops — slate building and the
// slow-check recounts — read only the state, and packing those into a
// dense array keeps the scans cache-resident at volunteer-grid platform
// sizes.
type workerState struct {
	proc *platform.Processor
	// analytics is the interned per-model cache the scheduler view exposes.
	analytics *expect.Analytics
	// progRecv counts program slots held; == Tprog means the full program.
	progRecv int
	// computing is the copy being computed (data complete), if any.
	computing *copyState
	// incoming is the copy whose data is bound to this worker (receiving or
	// suspended), if any. Its transfer chain is: remaining program first,
	// then the task data.
	incoming *copyState
}

// hasProgram reports whether the full program is held.
func (w *workerState) hasProgram(tprog int) bool { return w.progRecv >= tprog }

// remProgram is the number of program slots still needed.
func (w *workerState) remProgram(tprog int) int { return tprog - w.progRecv }

// busy reports whether any begun work is attached to the worker.
func (w *workerState) busy() bool { return w.computing != nil || w.incoming != nil }

// crash applies a transition into DOWN: the program, all task data and all
// partial computation are lost (Section 3.2). It appends the killed copies
// to buf (a caller-owned scratch buffer, so the steady-state hot path stays
// allocation-free) and returns the extended buffer.
func (w *workerState) crash(buf []*copyState) []*copyState {
	if w.computing != nil {
		buf = append(buf, w.computing)
		w.computing = nil
	}
	if w.incoming != nil {
		buf = append(buf, w.incoming)
		w.incoming = nil
	}
	w.progRecv = 0
	return buf
}

// dropCopiesOf removes any copy of the given task from the worker (used when
// another copy completed, and at iteration barriers), appending the dropped
// copies to buf for waste accounting. The program is kept: only DOWN loses it.
func (w *workerState) dropCopiesOf(task int, buf []*copyState) []*copyState {
	if w.computing != nil && w.computing.task == task {
		buf = append(buf, w.computing)
		w.computing = nil
	}
	if w.incoming != nil && w.incoming.task == task {
		buf = append(buf, w.incoming)
		w.incoming = nil
	}
	return buf
}

// dropAllCopies clears the whole pipeline (iteration barrier), appending the
// dropped copies to buf.
func (w *workerState) dropAllCopies(buf []*copyState) []*copyState {
	if w.computing != nil {
		buf = append(buf, w.computing)
		w.computing = nil
	}
	if w.incoming != nil {
		buf = append(buf, w.incoming)
		w.incoming = nil
	}
	return buf
}

// needsTransfer reports whether the worker's bound chain still needs channel
// slots (program remainder or incoming data).
func (w *workerState) needsTransfer(tprog int) bool {
	return w.incoming != nil && (!w.hasProgram(tprog) || !w.incoming.dataDone)
}

// advanceTransfer consumes one granted channel slot: program first, then the
// incoming task's data. It must only be called when needsTransfer is true
// and the worker is UP.
func (w *workerState) advanceTransfer(tprog, tdata int) {
	if !w.hasProgram(tprog) {
		w.progRecv++
	} else {
		w.incoming.dataRecv++
	}
	if w.hasProgram(tprog) && w.incoming.dataRecv >= tdata {
		w.incoming.dataDone = true
	}
}

// promote moves a data-complete incoming copy into the (free) computing
// slot. It returns true when a promotion happened.
func (w *workerState) promote() bool {
	if w.computing == nil && w.incoming != nil && w.incoming.dataDone {
		w.computing = w.incoming
		w.incoming = nil
		return true
	}
	return false
}
