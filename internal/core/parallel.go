package core

// This file implements the parallel exploration engine: the decision
// tree is partitioned into subtree work units (decision.Split), a pool of
// workers — each owning a private Checker, so the simulation itself stays
// single-threaded and lock-free — explores them concurrently, and a
// coordinator merges statistics and deduplicates bugs. Work-stealing is donation-based: a worker at an execution
// boundary that sees hungry peers and an empty queue splits its own
// unit at the shallowest advanceable decision point, handing off the
// largest subtrees.
//
// Because Split partitions a unit exactly (the donated branches leave
// the victim's range), a run that completes the tree performs exactly
// the executions the serial DFS would, in a different order: Executions
// and the per-kind decision-point counts are worker-count-invariant,
// and so is the distinct-bug set. Only discovery order — and therefore
// Bug.Execution ordinals and which duplicate of a bug wins dedup — can
// differ; bugs are reported in a stable (kind, message) order when more
// than one worker ran.
//
// Every engine decision is taken at an execution boundary, under the one
// lock, by the worker that is there — progress snapshots and tracer drains
// included; nothing waits for a peer, nothing watches the clock or the
// heap, and the only goroutines the engine starts are the workers.
// Checkpointing follows from one invariant: with the lock free, every
// unexplored unit is in the queue or in held — the snapshot its owner took
// when it claimed the unit and again at each boundary, after Advance and
// Split. A due cadence writes held ∪ queue next to total on the spot. That
// is a consistent frontier: total holds exactly the executions merged at
// those same boundaries, an execution in flight is still pending in its
// owner's held snapshot, and the finished units' decision-point counts are
// already in total.
//
// A single worker degenerates to the serial loop — same boundary-check
// order, no donation (nobody is hungry), exact MaxExecutions cutoff —
// so there is exactly one exploration code path for all worker counts.

import (
	"errors"
	"sync"
	"time"

	"repro/internal/decision"
	"repro/internal/obs"
)

// engine coordinates the worker pool for one Run. Its queue is the frontier
// the embedded Ledger keeps the books of.
type engine struct {
	Ledger
	deadline time.Time

	mu   sync.Mutex
	cond *sync.Cond
	// queue holds subtree units nobody is exploring; active counts units
	// currently owned by workers; hungry counts workers waiting in take.
	queue  []*decision.Tree
	active int
	hungry int
	// total is the run's result so far: a resumed checkpoint's totals,
	// plus every finished execution's counters and bugs, folded in from the
	// worker's checker at its next execution boundary (mergeLocked), plus
	// the decision points of every unit explored to the end. Units still
	// queued or being explored carry their points inside.
	total Tally
	// nextExec numbers executions: workers reserve an ordinal under mu
	// before each one, which makes MaxExecutions an exact global cutoff (no
	// overshoot even with many workers). It runs ahead of total.Executions
	// by the executions in flight.
	nextExec int
	// stopFlag tells workers to release their units and exit; set on
	// bug-stop, MaxExecutions, MaxTime, Stop and failure.
	stopFlag    bool
	interrupted bool
	failErr     error
	// panicked stores a panic escaping a worker goroutine, re-raised on
	// Run's goroutine after the pool drains.
	panicked any
	haveP    bool

	// held[i] is the snapshot of the unit worker i owns, as of its last
	// execution boundary; empty while it owns none or the run keeps no
	// checkpoint file. The buffers are reused, so a boundary allocates
	// nothing.
	held [][]byte

	// Observability plumbing (see observe.go). The Ledger's om and tracer
	// are the engine's: om's instruments are nil (valid no-ops) when
	// Config.Obs is not set; tracer is nil without Config.EventTrace.
	// workers is the per-worker status a Progress
	// snapshot carries, mutated only under mu at execution boundaries.
	// watched says a boundary has progress to report or a tracer to drain
	// (watchLocked), lastReport when it last did.
	workers    []WorkerStatus
	watched    bool
	lastReport time.Time
}

// worker is the per-goroutine exploration state.
type worker struct {
	id int
	ck *Checker
	// merged is how much of the private checker's tally has been folded
	// into the engine, so boundary merges are incremental.
	merged mark
}

func newEngine(cfg Config, program func(*Program), progDigest string) *engine {
	e := &engine{Ledger: Ledger{
		cfg:        cfg,
		program:    program,
		cfgDigest:  configDigest(cfg),
		progDigest: progDigest,
		merged:     cfg.Workers > 1,
	}}
	e.cond = sync.NewCond(&e.mu)
	e.held = make([][]byte, cfg.Workers)
	e.workers = make([]WorkerStatus, cfg.Workers)
	for i := range e.workers {
		e.workers[i] = WorkerStatus{ID: i, State: "wait"}
	}
	return e
}

// run drives the whole exploration and assembles the Result, next to the
// final checkpoint when the run keeps one (CheckpointPath, or in memory).
func (e *engine) run() (*Checkpoint, *Result, error) {
	e.start = time.Now()
	if e.cfg.MaxTime > 0 {
		e.deadline = e.start.Add(e.cfg.MaxTime)
	}
	obsDown := e.initObs()
	defer obsDown()
	// Each worker explores on a private checker from the pool. They go back
	// after Close, which has read every unit by then: the root unit of a
	// fresh exploration is worker 0's spare tree.
	workers := make([]worker, e.cfg.Workers)
	for i := range workers {
		ck := newChecker(e.cfg, e.program)
		ck.cfgDigest, ck.progDigest, ck.deadline = e.cfgDigest, e.progDigest, e.deadline
		ck.om, ck.tracer, ck.workerID = e.om, e.tracer, i
		workers[i] = worker{id: i, ck: ck}
	}
	defer func() {
		for i := range workers {
			workers[i].ck.release()
		}
	}()
	// Resume any checkpoint — the file, or the one handed to Continue — and
	// seed the work queue; no worker has started, so no lock is taken.
	units, total, err := e.resume(workers[0].ck.spareTree(nil, false))
	if err != nil {
		return nil, nil, err
	}
	e.queue, e.total, e.nextExec = units, total, total.Executions
	if e.resumed {
		// Seed the process-lifetime metrics with the inherited totals so
		// /statusz and /metrics agree with Stats.
		e.om.publish(e.total.Counters, len(e.total.Bugs))
	}
	if len(units) == 0 {
		// The checkpointed exploration already finished.
		return e.envelope(e.total, nil, true, false), e.result(e.total, nil, true, false), nil
	}

	var wg sync.WaitGroup
	for i := range workers {
		w := &workers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tr := e.take(w)
				if tr == nil {
					return
				}
				e.runUnit(w, tr)
			}
		}()
	}
	wg.Wait()

	if e.haveP {
		panic(e.panicked)
	}
	if e.failErr != nil {
		return nil, nil, e.failErr
	}
	return e.Close(e.total, e.queue, !e.stopFlag && len(e.queue) == 0, e.interrupted)
}

// frontierLocked is the engine's frontier as a checkpoint takes it: the
// totals and held ∪ queue. The held entries alias the engine's reused
// buffers, so the caller encodes them before it lets go of the lock.
func (e *engine) frontierLocked() (Tally, [][]byte) {
	units := make([][]byte, 0, len(e.held)+len(e.queue))
	for _, snap := range e.held {
		if len(snap) > 0 {
			units = append(units, snap)
		}
	}
	for _, tr := range e.queue {
		units = append(units, tr.Snapshot())
	}
	return e.total, units
}

// take blocks until a unit is available (returning it) or the run is
// over (returning nil).
func (e *engine) take(w *worker) *decision.Tree {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hungry++
	defer func() { e.hungry-- }()
	parked := false
	for {
		// Poll Config.Stop on the way in, so a run whose stop already fired
		// claims no unit at all. A worker parked below needs no watcher: it
		// parks only while a peer is active, that peer polls Stop at its next
		// boundary (cutoffLocked), and its stopLocked wakes everyone.
		if !e.stopFlag && e.failErr == nil && stopRequested(e.cfg.Stop) {
			e.interrupted = true
			e.stopLocked()
		}
		if e.stopFlag || e.failErr != nil {
			e.workers[w.id].State = "done"
			return nil
		}
		if len(e.queue) == 0 && e.active == 0 {
			e.workers[w.id].State = "done"
			return nil
		}
		if len(e.queue) > 0 {
			tr := e.queue[0]
			e.queue = e.queue[1:]
			e.active++
			// The unit leaves the queue and enters held in one critical
			// section: a checkpoint a peer writes before this worker's first
			// boundary must still contain it.
			e.holdLocked(w, tr)
			e.om.unitClaims.Inc()
			e.tracer.Record(w.id, obs.EvSteal, int64(len(e.queue)), 0)
			e.workers[w.id].State = "run"
			e.workers[w.id].Units++
			return tr
		}
		if !parked {
			// First wait of this dry spell: record the park once, not per
			// spurious wakeup.
			parked = true
			e.tracer.Record(w.id, obs.EvPark, int64(e.hungry), 0)
			e.workers[w.id].State = "wait"
		}
		e.cond.Wait()
	}
}

// runUnit explores one subtree unit on w's private checker until the
// unit is exhausted, the run stops, or an error surfaces. All
// cross-worker coordination happens in one critical section per
// execution boundary; the executions themselves run lock-free.
func (e *engine) runUnit(w *worker, tr *decision.Tree) {
	ck := w.ck
	ck.tree = tr
	released := false
	defer func() {
		v := recover()
		if v == nil && released {
			return
		}
		e.mu.Lock()
		if !released {
			e.endUnitLocked(w, tr, false)
		}
		switch x := v.(type) {
		case nil:
			// Neither a return nor a panic: a thread called runtime.Goexit,
			// which its carrier re-raised here and which ends this worker.
			e.failLocked(errors.New("cxlmc: a checked thread called runtime.Goexit, which thread code must not"))
		case setupError:
			e.failLocked(x)
		case internalInvariant:
			e.failLocked(ck.newInternalError(x.msg))
		default:
			if !e.haveP {
				e.haveP = true
				e.panicked = v
			}
			e.stopLocked()
		}
		e.mu.Unlock()
	}()

	first := true
	for {
		// Chaos: a worker stall models scheduler hiccups and slow I/O; it
		// happens outside the lock so it perturbs interleaving, not the
		// critical section.
		e.cfg.Chaos.Stall()
		e.mu.Lock()
		// Chaos: a spurious wakeup exercises every cond.Wait loop's
		// predicate re-check.
		if e.cfg.Chaos.SpuriousWake() {
			e.cond.Broadcast()
		}
		leave, spent := false, false
		if !first {
			leave, spent = e.boundaryLocked(w, tr)
		}
		first = false
		if !leave {
			// Reserve a global execution ordinal: exact MaxExecutions cutoff.
			// (A freshly claimed unit has passed no boundary yet, and the run
			// may have ended since the claim.)
			if e.cfg.MaxExecutions > 0 && e.nextExec >= e.cfg.MaxExecutions {
				e.stopLocked()
			}
			leave = e.stopFlag || e.failErr != nil
		}
		if leave {
			// The one place a worker lets go of its unit: unless the unit is
			// spent it goes back to the queue, whatever stopped the run, so a
			// checkpoint's frontier is whole.
			e.endUnitLocked(w, tr, !spent)
			released = true
			e.mu.Unlock()
			return
		}
		e.nextExec++
		ck.execNo = e.nextExec
		e.workers[w.id].Executions++
		e.mu.Unlock()

		tr.Begin()
		ck.runOneExecution()
	}
}

// boundaryLocked is the critical section after an execution: it folds the
// execution into the engine and decides whether the worker lets go of the
// unit (leave). spent marks a unit that must not return to the queue: an
// exhausted one, or one a checker invariant broke under. The checks run in
// the serial loop's order.
func (e *engine) boundaryLocked(w *worker, tr *decision.Tree) (leave, spent bool) {
	ck := w.ck
	e.mergeLocked(w)
	if e.watched {
		e.watchLocked()
	}
	if ck.internalErr != nil {
		e.failLocked(ck.internalErr)
		return true, true
	}
	if ck.timedOut || (ck.aborted && !e.cfg.ContinueAfterBug) {
		// The first bug stops the run; or the deadline fired mid-execution,
		// and the partial path must not advance the tree (it would mark an
		// unexplored subtree done): the un-advanced unit goes back for the
		// checkpoint.
		e.stopLocked()
		return true, false
	}
	if !tr.Advance() {
		e.finishUnitLocked(tr)
		return true, true
	}
	// A backtrack, at the depth of the decision point that advanced.
	e.om.backtracks.Inc()
	e.tracer.Record(w.id, obs.EvBacktrack, int64(tr.PendingDepth()), 0)
	if e.cutoffLocked() {
		return true, false
	}
	// Donate work: peers are starving and the queue is dry, so carve
	// unexplored branches off this unit. With one worker nobody is ever
	// hungry and the serial DFS order is untouched.
	if e.hungry > 0 && len(e.queue) == 0 {
		if units := tr.Split(); len(units) > 0 {
			e.queue = append(e.queue, units...)
			e.cond.Broadcast()
		}
	}
	e.holdLocked(w, tr)
	if e.Due(e.total.Executions) {
		// A failed periodic write is counted and tolerated: the file
		// installed before it is intact, and only the final write is
		// load-bearing.
		e.Checkpoint(e.frontierLocked)
	}
	return false, false
}

// cutoffLocked reports whether the run is over at this execution boundary,
// raising the stop flag if this worker is the first to notice. The order —
// execution budget, time budget, Config.Stop, a peer's stop — is the serial
// loop's, and a documented contract.
func (e *engine) cutoffLocked() bool {
	switch {
	case e.cfg.MaxExecutions > 0 && e.nextExec >= e.cfg.MaxExecutions:
	case e.cfg.MaxTime > 0 && time.Since(e.start) > e.cfg.MaxTime:
	case stopRequested(e.cfg.Stop):
		e.interrupted = true
	case e.stopFlag || e.failErr != nil:
		return true // another worker stopped the run
	default:
		return false
	}
	e.stopLocked()
	return true
}

// mergeLocked folds what the worker's checker counted and found since its
// last boundary into the engine's total (bugs deduplicated globally) and
// publishes exactly that delta to the metrics, so /metrics is the sum of
// the same numbers Stats is.
func (e *engine) mergeLocked(w *worker) {
	d, fresh := w.ck.stats.since(&w.merged)
	e.total.Add(d)
	added := e.total.Merge(fresh)
	for _, b := range e.total.Bugs[len(e.total.Bugs)-added:] {
		e.tracer.RecordS(w.id, obs.EvBugFound, int64(b.Execution), b.Message)
	}
	// Bugs are counted post-dedup, so the metric matches len(Result.Bugs).
	e.om.publish(d, added)
	e.workers[w.id].Depth = w.ck.tree.Depth()
}

// finishUnitLocked accounts an exhausted unit: its decision-point counters
// move to the engine's completed totals.
func (e *engine) finishUnitLocked(tr *decision.Tree) {
	e.total.Add(treeCounters(tr))
	e.om.unitsFinished.Inc()
}

// endUnitLocked releases a unit the worker will not continue. With
// pushback the (possibly advanced) unit returns to the queue, so a final
// checkpoint captures exactly the unexplored frontier and a resumed run
// picks it up where this one stopped.
func (e *engine) endUnitLocked(w *worker, tr *decision.Tree, pushback bool) {
	if pushback {
		e.queue = append(e.queue, tr)
	}
	e.active--
	e.held[w.id] = e.held[w.id][:0]
	e.cond.Broadcast()
}

// holdLocked records w's unit as it stands at this boundary (see the held
// ∪ queue invariant in the file header). Runs that keep no checkpoint file
// skip the snapshot.
func (e *engine) holdLocked(w *worker, tr *decision.Tree) {
	if e.cfg.CheckpointPath != "" {
		e.held[w.id] = tr.AppendSnapshot(e.held[w.id][:0])
	}
}

func (e *engine) stopLocked() {
	e.stopFlag = true
	e.cond.Broadcast()
}

func (e *engine) failLocked(err error) {
	if e.failErr == nil {
		e.failErr = err
	}
	e.stopLocked()
}
