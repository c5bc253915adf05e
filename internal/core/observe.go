package core

// This file wires the exploration engine into the observability
// subsystem (repro/internal/obs): metric registration, the structured
// event tracer, the live status server, progress snapshots, and the
// decision-tree hook. Everything here is built to cost nothing when
// observability is off — coreMetrics is a value struct of nil-safe
// instrument pointers, so an uninstrumented run pays one nil check per
// site and allocates nothing new on the hot path.

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

	pruned      *obs.Counter
	prefixForks *obs.Counter
	stepsSaved  *obs.Counter

	races       *obs.Counter
	vetFindings *obs.Counter

	unitClaims    *obs.Counter
	unitsFinished *obs.Counter

	cpWrites      *obs.Counter
	cpRetries     *obs.Counter
	cpErrors      *obs.Counter
	cpQuarantines *obs.Counter

	govEscalations *obs.Counter
	chaosFaults    *obs.Counter

	frontier    *obs.Gauge
	activeG     *obs.Gauge
	hungryG     *obs.Gauge
	govStageG   *obs.Gauge
	heapBytes   *obs.Gauge
	workerCount *obs.Gauge

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

		pruned:      reg.Counter("cxlmc_pruned_total", "failure decision points pruned by state-space reduction"),
		prefixForks: reg.Counter("cxlmc_prefix_forks_total", "executions resumed from a shared decision prefix"),
		stepsSaved:  reg.Counter("cxlmc_prefix_steps_saved_total", "scheduler steps fast-replayed from the prefix log"),

		races:       reg.Counter("cxlmc_races_total", "happens-before race detector reports (pre-dedup)"),
		vetFindings: reg.Counter("cxlmc_vet_findings_total", "cxlvet static analysis findings"),

		unitClaims:    reg.Counter("cxlmc_unit_claims_total", "subtree work units claimed by workers"),
		unitsFinished: reg.Counter("cxlmc_units_finished_total", "subtree work units fully explored"),

		cpWrites:      reg.Counter("cxlmc_checkpoint_writes_total", "checkpoint files installed"),
		cpRetries:     reg.Counter("cxlmc_checkpoint_retries_total", "checkpoint write attempts retried after transient faults"),
		cpErrors:      reg.Counter("cxlmc_checkpoint_errors_total", "periodic checkpoint writes that failed after retries"),
		cpQuarantines: reg.Counter("cxlmc_checkpoint_quarantines_total", "corrupt checkpoints quarantined at startup"),

		govEscalations: reg.Counter("cxlmc_governor_escalations_total", "memory-governor stage escalations"),
		chaosFaults:    reg.Counter("cxlmc_chaos_faults_total", "faults injected by the chaos engine"),

		frontier:    reg.Gauge("cxlmc_frontier_units", "unexplored subtree units queued in memory"),
		activeG:     reg.Gauge("cxlmc_active_workers", "workers currently exploring a unit"),
		hungryG:     reg.Gauge("cxlmc_hungry_workers", "workers waiting for work"),
		govStageG:   reg.Gauge("cxlmc_governor_stage", "current memory-governor degradation stage"),
		heapBytes:   reg.Gauge("cxlmc_heap_bytes", "process heap in use at the last governor or progress sample"),
		workerCount: reg.Gauge("cxlmc_workers", "configured worker count"),

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

// publish adds a delta of the run's tally to the scraped counters. The
// engine calls it with exactly what it folds into its total — a worker's
// merge at an execution boundary, a resumed checkpoint's inheritance — so
// these series cannot disagree with Stats. Decision points are published
// by checkerHook as they are created, not from here.
func (m coreMetrics) publish(d Counters, bugs int) {
	m.execs.Add(int64(d.Executions))
	m.steps.Add(d.Steps)
	m.pruned.Add(d.Pruned)
	m.prefixForks.Add(d.PrefixForks)
	m.stepsSaved.Add(d.StepsSaved)
	m.races.Add(d.RaceReports)
	m.bugs.Add(int64(bugs))
}

// checkerHook forwards decision-tree structure events (fresh decision
// points, backtracks) into the metrics and the event trace. One hook is
// boxed per worker at pool start, so attaching it to each claimed unit
// allocates nothing.
type checkerHook struct {
	om     coreMetrics
	tracer *obs.Tracer
	worker int
}

func (h *checkerHook) DecisionCreated(kind decision.Kind, depth int) {
	if int(kind) < len(h.om.decisions) {
		h.om.decisions[kind].Inc()
	}
	h.tracer.Record(h.worker, obs.EvDecision, int64(kind), int64(depth))
}

func (h *checkerHook) Backtracked(depth int) {
	h.om.backtracks.Inc()
	h.tracer.Record(h.worker, obs.EvBacktrack, int64(depth), 0)
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
// payload of Config.OnProgress and the status server's /statusz.
type Progress struct {
	Executions int   `json:"executions"`
	Steps      int64 `json:"steps"`
	Bugs       int   `json:"bugs"`
	// Frontier counts unexplored subtree units: queued and actively being
	// explored.
	Frontier int `json:"frontier"`
	Queued   int `json:"queued"`
	Active   int `json:"active_workers"`

	GovernorStage    int    `json:"governor_stage"`
	Degraded         bool   `json:"degraded"`
	ChaosFaults      int    `json:"chaos_faults"`
	CheckpointErrors int    `json:"checkpoint_errors"`
	HeapBytes        uint64 `json:"heap_bytes"`

	// Elapsed is cumulative across resumed runs; ExecRate is this
	// process's executions per second.
	Elapsed  time.Duration `json:"elapsed_ns"`
	ExecRate float64       `json:"exec_rate"`
	// ETA is a crude completion estimate: remaining frontier units times
	// the mean executions per finished unit, divided by the execution
	// rate. Zero when unknown (no unit finished yet, or rate is zero).
	// Subtree sizes are wildly skewed, so treat it as an order of
	// magnitude, not a promise.
	ETA time.Duration `json:"eta_ns,omitempty"`

	TraceEvents int `json:"trace_events,omitempty"`

	Workers []WorkerStatus `json:"workers,omitempty"`
}

// String renders the one-line form cmd/cxlmc prints at -progress ticks.
func (p Progress) String() string {
	s := fmt.Sprintf("execs=%d rate=%.0f/s steps=%d frontier=%d(q%d) workers=%d bugs=%d",
		p.Executions, p.ExecRate, p.Steps, p.Frontier, p.Queued, p.Active, p.Bugs)
	if p.GovernorStage > 0 || p.Degraded {
		s += fmt.Sprintf(" gov=%d", p.GovernorStage)
	}
	if p.ChaosFaults > 0 {
		s += fmt.Sprintf(" chaos=%d", p.ChaosFaults)
	}
	if p.CheckpointErrors > 0 {
		s += fmt.Sprintf(" cperr=%d", p.CheckpointErrors)
	}
	if p.ETA > 0 {
		s += fmt.Sprintf(" eta~%s", p.ETA.Round(time.Second))
	}
	return s
}

// initObs builds the run's observability plumbing from the Config: the
// registry-backed instruments, the event tracer, the chaos fault
// observer, and the status server (which binds immediately so a bad
// address fails the run before exploration starts). It returns a
// teardown function; on error nothing is left running.
func (e *engine) initObs() (func(), error) {
	reg := e.cfg.Obs
	if reg == nil && e.cfg.MetricsAddr != "" {
		// A status server without a registry would serve an empty
		// /metrics forever; give it a private one.
		reg = obs.NewRegistry()
	}
	e.reg = reg
	if reg != nil {
		e.om = newCoreMetrics(reg)
		e.om.workerCount.Set(int64(e.cfg.Workers))
	}
	if e.cfg.EventTrace != nil {
		e.tracer = obs.NewTracer(e.cfg.Workers, eventBufferSize, e.cfg.EventTrace)
	}
	if e.cfg.Chaos != nil && (reg != nil || e.tracer != nil) {
		om, tr := e.om, e.tracer
		// Called with the injector's lock held: atomics and a ring append
		// only, never back into the injector or the engine lock.
		e.cfg.Chaos.SetOnFault(func(class string) {
			om.chaosFaults.Inc()
			tr.RecordS(-1, obs.EvChaosFault, 0, class)
		})
	}

	var srv *obs.Server
	if e.cfg.MetricsAddr != "" {
		var err error
		srv, err = obs.NewServer(e.cfg.MetricsAddr, reg, func() any { return e.progress() })
		if err != nil {
			e.cfg.Chaos.SetOnFault(nil)
			return nil, err
		}
		e.server = srv
		if e.cfg.OnStatusServer != nil {
			e.cfg.OnStatusServer(srv.Addr())
		}
	}

	stopMonitor := e.startMonitor()
	teardown := func() {
		stopMonitor()
		e.tracer.Flush()
		if e.cfg.OnProgress != nil {
			e.cfg.OnProgress(e.progress())
		}
		srv.Close()
		e.cfg.Chaos.SetOnFault(nil)
	}
	return teardown, nil
}

// startMonitor runs the engine's monitor goroutine: periodic progress
// snapshots, on-demand status requests (SIGUSR1 in cmd/cxlmc), and
// tracer flushes so the JSONL stream stays fresh. Returns a stop
// function that blocks until the goroutine exits.
func (e *engine) startMonitor() func() {
	if e.cfg.ProgressEvery <= 0 && e.cfg.StatusRequests == nil && e.tracer == nil {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var tick <-chan time.Time
		cadence := e.cfg.ProgressEvery
		if cadence <= 0 && e.tracer != nil {
			// No progress cadence, but the tracer still wants periodic
			// flushes so a tail -f on the event log sees events live.
			cadence = time.Second
		}
		if cadence > 0 {
			t := time.NewTicker(cadence)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-done:
				return
			case <-tick:
				if e.cfg.ProgressEvery > 0 && e.cfg.OnProgress != nil {
					e.cfg.OnProgress(e.progress())
				}
				e.tracer.Flush()
			case <-e.cfg.StatusRequests:
				if e.cfg.OnProgress != nil {
					e.cfg.OnProgress(e.progress())
				}
				e.tracer.Flush()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// progress assembles a Progress snapshot under the engine lock. Called
// from the monitor goroutine and the status server's /statusz handler.
func (e *engine) progress() Progress {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.mu.Lock()
	defer e.mu.Unlock()
	sinceStart := time.Since(e.start)
	p := Progress{
		Executions:       e.total.Executions,
		Steps:            e.total.Steps,
		Bugs:             len(e.total.Bugs),
		Queued:           len(e.queue),
		Active:           e.active,
		Frontier:         len(e.queue) + e.active,
		GovernorStage:    e.govStage,
		Degraded:         e.res.Degraded,
		CheckpointErrors: e.res.CheckpointErrors,
		HeapBytes:        ms.HeapAlloc,
		Elapsed:          e.prior + sinceStart,
		TraceEvents:      e.tracer.Total(),
		Workers:          append([]WorkerStatus(nil), e.workers...),
	}
	e.om.heapBytes.Set(int64(ms.HeapAlloc))
	// The rate is this process's: what it started, not what it inherited.
	localExecs := 0
	for _, w := range e.workers {
		localExecs += w.Executions
	}
	if sec := sinceStart.Seconds(); sec > 0 {
		p.ExecRate = float64(localExecs) / sec
	}
	if e.unitsDone > 0 && p.ExecRate > 0 && p.Frontier > 0 {
		perUnit := float64(localExecs) / float64(e.unitsDone)
		p.ETA = time.Duration(float64(p.Frontier) * perUnit / p.ExecRate * float64(time.Second))
	}
	if e.cfg.Chaos != nil {
		// The injector lock nests strictly inside e.mu here; OnFault never
		// takes e.mu, so the order is acyclic.
		p.ChaosFaults = e.cfg.Chaos.Stats().Total()
	}
	return p
}

// syncGaugesLocked refreshes the frontier/worker gauges from the
// engine's state. Called at execution boundaries under e.mu; with
// observability off every Set is a nil check.
func (e *engine) syncGaugesLocked() {
	e.om.frontier.Set(int64(len(e.queue)))
	e.om.activeG.Set(int64(e.active))
	e.om.hungryG.Set(int64(e.hungry))
	e.om.govStageG.Set(int64(e.govStage))
}
