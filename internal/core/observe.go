package core

// This file wires the exploration engine into the observability
// subsystem (repro/internal/obs): metric registration, the structured
// event tracer and progress snapshots. Serving
// them is the caller's: the engine starts no server. Everything here is
// built to cost nothing when observability is off — coreMetrics is a value
// struct of nil-safe instrument pointers, so an uninstrumented run pays one
// nil check per site and allocates nothing new on the hot path.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/decision"
	"repro/internal/obs"
)

// coreMetrics bundles every instrument the engine and its checkers
// record into. It is a value struct: copied into the engine and each
// worker's Checker, its fields are all nil when observability is off,
// and every instrument method is nil-safe, so no holder ever checks
// "is observability on".
type coreMetrics struct {
	execs      *obs.Counter
	steps      *obs.Counter
	bugs       *obs.Counter
	decisions  [numDecisionKinds]*obs.Counter
	backtracks *obs.Counter

	pruned *obs.Counter

	races *obs.Counter

	unitClaims    *obs.Counter
	unitsFinished *obs.Counter

	checkpointMetrics

	execSteps *obs.Histogram
	execDepth *obs.Histogram
}

// newCoreMetrics registers the checker's instruments on reg. A nil reg
// yields the all-nil coreMetrics, which is the valid "off" value.
func newCoreMetrics(reg *obs.Registry) coreMetrics {
	m := coreMetrics{
		execs:      reg.Counter("cxlmc_executions_total", "program executions explored"),
		steps:      reg.Counter("cxlmc_steps_total", "scheduler steps across all executions"),
		bugs:       reg.Counter("cxlmc_bugs_total", "distinct bugs found"),
		backtracks: reg.Counter("cxlmc_backtracks_total", "decision-tree backtracks"),

		pruned: reg.Counter("cxlmc_pruned_total", "failure decision points pruned by state-space reduction"),

		races: reg.Counter("cxlmc_races_total", "happens-before race detector reports (pre-dedup)"),

		unitClaims:    reg.Counter("cxlmc_unit_claims_total", "subtree work units claimed by workers"),
		unitsFinished: reg.Counter("cxlmc_units_finished_total", "subtree work units fully explored"),

		checkpointMetrics: newCheckpointMetrics(reg),

		execSteps: reg.Histogram("cxlmc_exec_steps", "scheduler steps per execution",
			[]float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}),
		execDepth: reg.Histogram("cxlmc_exec_decision_depth", "decision points hit per execution",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
	}
	m.decisions[decision.KindReadFrom] = reg.Counter("cxlmc_decisions_read_from_total", "read-from decision points created")
	m.decisions[decision.KindFailure] = reg.Counter("cxlmc_decisions_failure_total", "failure-injection decision points created")
	m.decisions[decision.KindPoison] = reg.Counter("cxlmc_decisions_poison_total", "poison decision points created")
	return m
}

// checkpointMetrics are the instruments of checkpoint I/O, which every
// Ledger counts — the engine's among the rest of its instruments, the
// distributed coordinator's alone.
type checkpointMetrics struct {
	cpWrites, cpRetries, cpErrors, cpQuarantines *obs.Counter
}

func newCheckpointMetrics(reg *obs.Registry) checkpointMetrics {
	return checkpointMetrics{
		cpWrites:      reg.Counter("cxlmc_checkpoint_writes_total", "checkpoint files installed"),
		cpRetries:     reg.Counter("cxlmc_checkpoint_retries_total", "checkpoint write attempts retried after transient faults"),
		cpErrors:      reg.Counter("cxlmc_checkpoint_errors_total", "periodic checkpoint writes that failed after retries"),
		cpQuarantines: reg.Counter("cxlmc_checkpoint_quarantines_total", "corrupt checkpoints quarantined at startup"),
	}
}

// publish adds a delta of the run's tally to the scraped counters. The
// engine calls it with exactly what it folds into its total — a worker's
// merge at an execution boundary, a resumed checkpoint's inheritance — so
// these series cannot disagree with Stats. Decision points are published
// where they are chosen (Checker.choose) and backtracks where the tree
// advances (boundaryLocked), not from here.
func (m coreMetrics) publish(d Counters, bugs int) {
	m.execs.Add(int64(d.Executions))
	m.steps.Add(d.Steps)
	m.pruned.Add(d.Pruned)
	m.races.Add(d.RaceReports)
	m.bugs.Add(int64(bugs))
}

// WorkerStatus is one worker's slice of a Progress snapshot.
type WorkerStatus struct {
	ID int `json:"id"`
	// State is "run" (exploring a unit), "wait" (parked: the queue is dry
	// and a peer still holds a unit it may split), or "done" (exited the
	// pool).
	State string `json:"state"`
	// Executions is how many executions this worker has run.
	Executions int `json:"executions"`
	// Depth is the decision depth of the worker's last completed
	// execution — a rough how-deep-in-the-tree indicator.
	Depth int `json:"depth"`
	// Units is how many subtree work units this worker has claimed.
	Units int `json:"units"`
}

// Progress is a point-in-time snapshot of a running exploration — the
// payload of Config.OnProgress, and what cmd/cxlmc serves at /statusz.
// It is the one home of a run's live state — queue, active and waiting
// workers, heap — which Config.Obs, a registry runs may share, does not hold.
type Progress struct {
	Executions int   `json:"executions"`
	Steps      int64 `json:"steps"`
	Bugs       int   `json:"bugs"`
	// Frontier counts unexplored subtree units: queued and actively being
	// explored.
	Frontier int `json:"frontier"`
	Queued   int `json:"queued"`
	Active   int `json:"active_workers"`

	CheckpointErrors int    `json:"checkpoint_errors"`
	HeapBytes        uint64 `json:"heap_bytes"`

	// Elapsed is cumulative across resumed runs; ExecRate is this
	// process's executions per second.
	Elapsed  time.Duration `json:"elapsed_ns"`
	ExecRate float64       `json:"exec_rate"`

	TraceEvents int `json:"trace_events,omitempty"`

	Workers []WorkerStatus `json:"workers,omitempty"`
}

// String renders the one-line form cmd/cxlmc prints at -progress ticks.
func (p Progress) String() string {
	s := fmt.Sprintf("execs=%d rate=%.0f/s steps=%d frontier=%d(q%d) workers=%d bugs=%d",
		p.Executions, p.ExecRate, p.Steps, p.Frontier, p.Queued, p.Active, p.Bugs)
	if p.CheckpointErrors > 0 {
		s += fmt.Sprintf(" cperr=%d", p.CheckpointErrors)
	}
	return s
}

// initObs builds the run's observability plumbing from the Config: the
// registry-backed instruments and the event tracer. It returns the
// teardown, which drains the tracer and hands OnProgress the final snapshot
// once no worker is left.
func (e *engine) initObs() func() {
	if e.cfg.Obs != nil {
		e.om = newCoreMetrics(e.cfg.Obs)
	}
	if e.cfg.EventTrace != nil {
		e.tracer = obs.NewTracer(e.cfg.Workers, eventBufferSize, e.cfg.EventTrace)
	}
	e.watched = e.cfg.OnProgress != nil || e.tracer != nil
	e.lastReport = e.start
	return func() {
		e.tracer.Flush()
		if e.cfg.OnProgress != nil {
			e.cfg.OnProgress(e.progressLocked())
		}
	}
}

// reportPeriod is how often an execution boundary reports on the run: a
// snapshot to OnProgress and a drain of the event trace.
const reportPeriod = 250 * time.Millisecond

// watchLocked reports on the run from an execution boundary, by the worker
// that is there, once reportPeriod has passed since the last report: a
// Progress snapshot to OnProgress and a tracer drain, so the event log stays
// fresh. Snapshots are serial because the lock is held.
func (e *engine) watchLocked() {
	now := time.Now()
	if now.Sub(e.lastReport) < reportPeriod {
		return
	}
	e.lastReport = now
	if e.cfg.OnProgress != nil {
		e.cfg.OnProgress(e.progressLocked())
	}
	e.tracer.Flush()
}

// progressLocked assembles a Progress snapshot: under e.mu at a boundary, or
// at teardown, when no worker is left.
func (e *engine) progressLocked() Progress {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sinceStart := time.Since(e.start)
	p := Progress{
		Executions:       e.total.Executions,
		Steps:            e.total.Steps,
		Bugs:             len(e.total.Bugs),
		Queued:           len(e.queue),
		Active:           e.active,
		Frontier:         len(e.queue) + e.active,
		CheckpointErrors: e.res.CheckpointErrors,
		HeapBytes:        ms.HeapAlloc,
		Elapsed:          e.prior + sinceStart,
		TraceEvents:      e.tracer.Total(),
		Workers:          append([]WorkerStatus(nil), e.workers...),
	}
	// The rate is this process's: what it started, not what it inherited.
	localExecs := 0
	for _, w := range e.workers {
		localExecs += w.Executions
	}
	if sec := sinceStart.Seconds(); sec > 0 {
		p.ExecRate = float64(localExecs) / sec
	}
	return p
}
