package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cxlmc "repro"
	"repro/internal/chaos"
	"repro/internal/obs"
)

// Config configures a job server. The zero value of every field takes
// the default documented on it.
type Config struct {
	// Addr is the listen address (":0" binds an ephemeral port).
	Addr string
	// Dir is the durable store directory (journal + per-job engine
	// checkpoints). Required.
	Dir string

	// PoolWorkers is the number of jobs run concurrently; default 2.
	PoolWorkers int
	// QueueDepth bounds each tenant's queued (not running) jobs; a full
	// queue answers 429 with Retry-After. Default 32.
	QueueDepth int

	// MaxRetries bounds retries of transiently-failed runs (chaos I/O,
	// and degraded stops that made no progress); default 3. Degraded
	// stops that DID advance the exploration are always resumed — they
	// are the governor working as designed, not a failure.
	MaxRetries int
	// RetryBase/RetryCap shape the capped exponential backoff between
	// retries; defaults 100ms and 5s.
	RetryBase time.Duration
	RetryCap  time.Duration

	// Base is the engine configuration every job's run starts from: the
	// spec's knobs are laid over it (Spec.Config), then the server's own
	// wiring of one job — its checkpoint file, stop channel and progress
	// feed. Its zero fields take the server's defaults: CheckpointEvery 64
	// and CheckpointInterval 2s, ProgressEvery 250ms, WedgeTimeout 30s,
	// and Workers 1, so concurrent jobs share the host's cores instead of
	// each grabbing GOMAXPROCS. MaxTime caps every job's deadline and
	// MemBudgetBytes is the governor budget of specs that set none. Chaos
	// also injects faults into the journal's I/O and the pool's
	// scheduling; Obs is the server's registry (nil creates a private one,
	// read back with Registry); EventTrace receives the job lifecycle
	// events as JSON lines, and no run's exploration events.
	Base cxlmc.Config

	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.PoolWorkers <= 0 {
		c.PoolWorkers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = 5 * time.Second
	}
	if c.Base.CheckpointEvery <= 0 {
		c.Base.CheckpointEvery = 64
	}
	if c.Base.CheckpointInterval <= 0 {
		c.Base.CheckpointInterval = 2 * time.Second
	}
	if c.Base.ProgressEvery <= 0 {
		c.Base.ProgressEvery = 250 * time.Millisecond
	}
	if c.Base.WedgeTimeout <= 0 {
		c.Base.WedgeTimeout = 30 * time.Second
	}
	if c.Base.Workers <= 0 {
		c.Base.Workers = 1
	}
	if c.Base.Obs == nil {
		c.Base.Obs = obs.NewRegistry()
	}
}

// metrics is the server's cxlmc_jobs_* instrument set.
type metrics struct {
	queued, running, done, failed, cancelled *obs.Counter
	retried, resumed, rejected, degraded     *obs.Counter
	journalRetries                           *obs.Counter
	queueDepth, active                       *obs.Gauge
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		queued:         reg.Counter("cxlmc_jobs_queued", "jobs accepted into the queue (submissions, retries and recovered re-queues)"),
		running:        reg.Counter("cxlmc_jobs_running", "job runs started on the pool"),
		done:           reg.Counter("cxlmc_jobs_done", "jobs finished successfully"),
		failed:         reg.Counter("cxlmc_jobs_failed", "jobs failed permanently"),
		cancelled:      reg.Counter("cxlmc_jobs_cancelled", "jobs cancelled by a client"),
		retried:        reg.Counter("cxlmc_jobs_retried", "job runs retried after a transient failure or degraded stop"),
		resumed:        reg.Counter("cxlmc_jobs_resumed", "jobs adopted from the journal at startup (restart recovery)"),
		rejected:       reg.Counter("cxlmc_jobs_rejected", "submissions rejected with 429 (queue full)"),
		degraded:       reg.Counter("cxlmc_jobs_degraded", "job runs stopped degraded by the memory governor"),
		journalRetries: reg.Counter("cxlmc_jobs_journal_retries", "journal writes retried after injected or transient I/O faults"),
		queueDepth:     reg.Gauge("cxlmc_jobs_queue_depth", "jobs currently queued across all tenants"),
		active:         reg.Gauge("cxlmc_jobs_active", "jobs currently running on the pool"),
	}
}

// job is the server's in-memory view of one submitted exploration.
type job struct {
	id     string
	tenant string
	spec   Spec

	stop     chan struct{}
	stopOnce sync.Once
	// done is closed when the job reaches a terminal state, which is
	// absorbing: it is what a status request parks on.
	done chan struct{}

	mu        sync.Mutex
	state     State
	retries   int
	strikes   int // degraded attempts without progress
	errMsg    string
	result    *cxlmc.Result
	progress  *cxlmc.Progress
	lastExecs int // executions at the previous degraded stop
	cancelled bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func (j *job) requestStop() {
	j.stopOnce.Do(func() { close(j.stop) })
}

// rearm replaces a consumed stop channel before a retry re-queues the
// job (a cancelled channel must not instantly stop the next run).
func (j *job) rearm() {
	j.mu.Lock()
	j.stop = make(chan struct{})
	j.stopOnce = sync.Once{}
	j.mu.Unlock()
}

// status is the job's summary — identity, state, times — or, full, the whole
// record: the spec, the latest progress snapshot while it runs and the result
// once it has one. A listing is summaries, so its size does not grow with
// what the jobs found.
func (j *job) status(full bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Tenant: j.tenant, State: j.state, Retries: j.retries,
		Error: j.errMsg, Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}
	if !full {
		return st
	}
	sp := j.spec
	st.Spec = &sp
	if j.progress != nil && !j.state.Terminal() {
		p := *j.progress
		st.Progress = &p
	}
	st.Result = j.result
	return st
}

// Server is a running job server. Start one with Start, stop it with
// Drain (graceful) or Close (hard).
type Server struct {
	cfg    Config
	m      metrics
	tracer *obs.Tracer
	st     *store
	q      *fairQueue
	http   *obs.Server

	jmu sync.Mutex // orders journal appends; handleSubmit takes it before mu

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	draining bool
	// quit is closed when the server stops, by Drain, Close or crash: a parked
	// status request is answered with what it has instead of holding the
	// listener open.
	quit     chan struct{}
	quitOnce sync.Once

	// crashed simulates kill -9 for tests: journaling and terminal
	// bookkeeping stop dead, exactly as if the process vanished.
	crashed atomic.Bool

	wg  sync.WaitGroup
	ema atomic.Int64 // EMA of job wall-clock (ns), for Retry-After
}

// Start opens (or recovers) the store in cfg.Dir, re-queues every
// non-terminal job from the journal, and begins serving the REST API on
// cfg.Addr.
func Start(cfg Config) (*Server, error) {
	s, err := recoverServer(cfg)
	if err != nil {
		return nil, err
	}
	routes := []obs.Route{
		{Pattern: "POST /jobs", Handler: http.HandlerFunc(s.handleSubmit)},
		{Pattern: "GET /jobs", Handler: http.HandlerFunc(s.handleList)},
		{Pattern: "GET /jobs/{id}", Handler: http.HandlerFunc(s.handleGet)},
		{Pattern: "POST /jobs/{id}/cancel", Handler: http.HandlerFunc(s.handleCancel)},
		{Pattern: "DELETE /jobs/{id}", Handler: http.HandlerFunc(s.handleCancel)},
	}
	srv, err := obs.NewServer(s.cfg.Addr, s.cfg.Base.Obs, s.statusz, routes...)
	if err != nil {
		s.st.close()
		return nil, err
	}
	s.http = srv

	for i := 0; i < s.cfg.PoolWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recoverServer is the half of Start that reads: the store opened, the
// journal recovered and every job in it adopted, with nothing served and
// nothing running yet.
func recoverServer(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	s := &Server{
		cfg:    cfg,
		m:      newMetrics(cfg.Base.Obs),
		q:      newFairQueue(cfg.QueueDepth),
		jobs:   make(map[string]*job),
		nextID: 1,
		quit:   make(chan struct{}),
	}
	if cfg.Base.EventTrace != nil {
		s.tracer = obs.NewTracer(1, 1024, cfg.Base.EventTrace)
		// The sink is the server's tracer's alone: engine tracers do not
		// share a writer.
		s.cfg.Base.EventTrace = nil
	}
	st, recs, err := openStore(cfg.Dir, cfg.Base.Chaos, func() {
		s.m.journalRetries.Inc()
		s.trace(obs.EvJobJournalRetry, "")
	})
	if err != nil {
		return nil, err
	}
	s.st = st
	sortRecords(recs)
	s.nextID = nextIDAfter(recs)
	s.adopt(recs)
	return s, nil
}

// adopt turns recovered journal records back into live jobs: terminal
// jobs are kept for status queries; running/degraded jobs resume from
// their checkpoint; queued jobs re-enter the queue. Nothing is lost and
// nothing reruns from scratch unnecessarily.
func (s *Server) adopt(recs []record) {
	for _, rec := range recs {
		j := &job{
			id:        rec.ID,
			tenant:    rec.Tenant,
			spec:      *rec.Spec,
			state:     rec.State,
			retries:   rec.Retries,
			errMsg:    rec.Error,
			result:    rec.Result,
			submitted: *rec.Submitted,
			stop:      make(chan struct{}),
			done:      make(chan struct{}),
		}
		if rec.Started != nil {
			j.started = *rec.Started
		}
		if rec.State.Terminal() {
			j.finished = rec.Time
			close(j.done)
		}
		if j.tenant == "" {
			j.tenant = j.spec.Tenant
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if rec.State.Terminal() {
			continue
		}
		// The spec was valid when it was journaled; one that is not now was
		// damaged or edited on disk, and is refused here as it would have
		// been at submit rather than handed to a pool worker.
		if err := j.spec.normalize(); err != nil {
			s.finishJob(j, StateFailed, nil, err.Error())
			continue
		}
		// A job that was mid-run when the last process died resumes from
		// its last checkpoint; one that was still queued starts fresh.
		// Both re-enter the queue — the checkpoint file, not the journal
		// state, decides how much work is left.
		if rec.State == StateRunning || rec.State == StateDegraded {
			s.m.resumed.Inc()
			s.trace(obs.EvJobResume, j.id)
		}
		j.state = StateQueued
		s.q.requeue(j)
		s.m.queued.Inc()
		s.m.queueDepth.Set(int64(s.q.len()))
		s.logf("jobs: recovered %s (%s) as queued", j.id, j.tenant)
	}
}

// Addr returns the bound "host:port".
func (s *Server) Addr() string { return s.http.Addr() }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.cfg.Base.Obs }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) trace(kind obs.EventKind, id string) {
	if s.tracer != nil {
		s.tracer.RecordS(-1, kind, 0, id)
	}
}

// journal appends one record unless the server has (test-)crashed.
// Append failures after retries are logged and tolerated: in-memory
// state stays authoritative for this process, and the next transition's
// append re-asserts the job's state.
func (s *Server) journal(rec record) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.journalLocked(rec)
}

// journalLocked is journal for a caller that holds jmu.
func (s *Server) journalLocked(rec record) {
	if s.crashed.Load() {
		return
	}
	if err := s.st.append(rec); err != nil {
		s.logf("jobs: journal append for %s: %v", rec.ID, err)
	}
}

// statusz is the /statusz payload: queue and pool occupancy plus a
// per-state job census.
func (s *Server) statusz() any {
	s.mu.Lock()
	states := make(map[State]int)
	for _, j := range s.jobs {
		j.mu.Lock()
		states[j.state]++
		j.mu.Unlock()
	}
	draining := s.draining
	total := len(s.jobs)
	s.mu.Unlock()
	return map[string]any{
		"jobs":     total,
		"states":   states,
		"queue":    s.q.depths(),
		"active":   s.m.active.Value(),
		"draining": draining,
	}
}

// retryAfterSeconds estimates how long a 429'd client should wait: the
// queue's drain time at the observed mean job duration, clamped to
// [1s, 60s].
func (s *Server) retryAfterSeconds() int {
	mean := time.Duration(s.ema.Load())
	if mean <= 0 {
		mean = time.Second
	}
	est := time.Duration(s.q.len()/s.cfg.PoolWorkers+1) * mean
	secs := int(est / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) noteDuration(d time.Duration) {
	old := s.ema.Load()
	if old == 0 {
		s.ema.Store(int64(d))
		return
	}
	s.ema.Store(old + (int64(d)-old)/4)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleSubmit is POST /jobs: decode and validate the spec (strictly —
// unknown fields are a 400, which is what keeps the whitelist a
// whitelist), admit it under the tenant's queue bound, journal it, and
// answer 202 with the job id.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := parseSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The journal lock is held from before the job can be popped until its
	// queued record is appended: a pool worker's running record landing first
	// would lose recovery's last-writer-wins and the job its resume.
	s.jmu.Lock()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.jmu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	id := fmt.Sprintf("j-%06d", s.nextID)
	s.nextID++
	j := &job{
		id: id, tenant: spec.Tenant, spec: spec,
		state: StateQueued, submitted: time.Now().UTC(),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if !s.q.push(j) {
		s.nextID-- // id never escaped; reuse it
		s.mu.Unlock()
		s.jmu.Unlock()
		s.m.rejected.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		httpError(w, http.StatusTooManyRequests, "queue full for tenant %q (depth %d)", spec.Tenant, s.cfg.QueueDepth)
		return
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.journalLocked(record{ID: id, Tenant: j.tenant, State: StateQueued, Spec: &spec, Time: j.submitted})
	s.jmu.Unlock()
	s.m.queued.Inc()
	s.m.queueDepth.Set(int64(s.q.len()))
	s.trace(obs.EvJobSubmit, id)
	s.logf("jobs: %s submitted by %s (%s)", id, j.tenant, specName(&spec))
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// parseSpec decodes a submitted spec — unknown fields refused — validates it
// and fills its defaults.
func parseSpec(body io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("bad spec: %v", err)
	}
	return spec, spec.normalize()
}

func specName(sp *Spec) string {
	if sp.Gen != nil {
		return fmt.Sprintf("gen seed %d", sp.Gen.Seed)
	}
	if sp.Source != "" {
		return fmt.Sprintf("source %s entry %s", sp.SourceName, sp.Entry)
	}
	return sp.Bench
}

// handleList is GET /jobs[?tenant=]: all jobs in submit order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if tenant != "" && j.tenant != tenant {
			continue
		}
		out = append(out, j.status(false))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no job %q", id)
	}
	return j
}

// maxPark caps how long a status request may park.
const maxPark = 30 * time.Second

// handleGet is GET /jobs/{id}[?wait=duration]: full status including the
// spec, the latest progress snapshot, and the result once terminal. With wait,
// a request for a job still on its way parks here — as a worker's turn parks
// at the coordinator and an engine worker on its cond — and is answered the
// moment the job is terminal, or with whatever state it is in when the wait
// (capped at maxPark) runs out or the server stops. A server already stopping
// parks nobody: the 503 sends the caller's retry to its successor.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if wait := r.URL.Query().Get("wait"); wait != "" {
		d, err := time.ParseDuration(wait)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad wait: %v", err)
			return
		}
		select {
		case <-s.quit:
			if !j.status(false).State.Terminal() {
				httpError(w, http.StatusServiceUnavailable, "server is stopping")
				return
			}
		default:
			t := time.NewTimer(min(d, maxPark))
			defer t.Stop()
			select {
			case <-j.done:
			case <-s.quit:
			case <-t.C:
			case <-r.Context().Done():
			}
		}
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleCancel is POST /jobs/{id}/cancel (or DELETE /jobs/{id}): a
// queued job is cancelled on the spot; a running one is stopped at its
// next execution boundary and journaled cancelled by the pool worker.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	switch {
	case j.state.Terminal():
		st := j.state
		j.mu.Unlock()
		httpError(w, http.StatusConflict, "job %s is already %s", j.id, st)
		return
	case j.state == StateQueued:
		j.cancelled = true
		j.mu.Unlock()
		if s.q.remove(j) {
			s.finishJob(j, StateCancelled, nil, "cancelled while queued")
			s.m.queueDepth.Set(int64(s.q.len()))
		}
		// If remove lost the race with a pool worker the job is now
		// running; the cancelled flag plus requestStop below still end it.
	default:
		j.cancelled = true
		j.mu.Unlock()
	}
	j.requestStop()
	writeJSON(w, http.StatusOK, j.status(false))
}

// worker is one pool worker: claim, run, classify, repeat.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.q.pop()
		if j == nil {
			return
		}
		s.m.queueDepth.Set(int64(s.q.len()))
		s.runJob(j)
	}
}

// finishJob moves a job to a terminal state: journal first, then drop
// the now-useless checkpoint, then count, and only then let status
// readers see the state and wake the parked ones. The ordering means a crash can
// only ever leave extra work (a re-run from a complete checkpoint, which
// returns the identical result), never a lost job — and that whoever has
// seen the terminal state also finds it in the journal and in the
// cxlmc_jobs_done/_failed/_cancelled counters.
func (s *Server) finishJob(j *job, state State, res *cxlmc.Result, errMsg string) {
	finished := time.Now().UTC()
	crashed := s.crashed.Load()
	if !crashed {
		j.mu.Lock()
		retries := j.retries
		j.mu.Unlock()
		s.journal(record{ID: j.id, Tenant: j.tenant, State: state, Retries: retries, Error: errMsg, Result: res, Time: finished})
		s.st.removeCheckpoint(j.id)
		switch state {
		case StateDone:
			s.m.done.Inc()
			s.trace(obs.EvJobDone, j.id)
		case StateFailed:
			s.m.failed.Inc()
			s.trace(obs.EvJobFail, j.id)
		case StateCancelled:
			s.m.cancelled.Inc()
			s.trace(obs.EvJobCancel, j.id)
		}
	}
	j.mu.Lock()
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = finished
	j.mu.Unlock()
	if crashed {
		return
	}
	s.logf("jobs: %s %s%s", j.id, state, ErrSuffix(errMsg))
	close(j.done)
}

// ErrSuffix renders a job's error for the end of a log or listing line.
func ErrSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}

// retryJob re-queues a job after a transient failure or a degraded stop.
// attempt drives the capped exponential backoff: escalating failures
// pass their retry count, while a degraded stop that advanced the
// exploration passes 0 — the governor pausing a healthy job should cost
// one base interval, not a growing penalty.
func (s *Server) retryJob(j *job, state State, why string, attempt int) {
	j.mu.Lock()
	j.state = state
	j.errMsg = why
	retries := j.retries
	j.mu.Unlock()
	if s.crashed.Load() {
		return
	}
	s.journal(record{ID: j.id, Tenant: j.tenant, State: state, Retries: retries, Error: why, Time: time.Now().UTC()})
	s.m.retried.Inc()
	s.trace(obs.EvJobRetry, j.id)

	backoff := s.cfg.RetryBase << uint(min(attempt, 10))
	if backoff > s.cfg.RetryCap {
		backoff = s.cfg.RetryCap
	}
	s.logf("jobs: %s %s (%s); retrying in %v", j.id, state, why, backoff)
	j.rearm()
	time.AfterFunc(backoff, func() {
		if s.crashed.Load() {
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			// The drain path already journaled the queue; leave the job
			// queued for the next process.
			s.setQueuedForRestart(j)
			return
		}
		j.mu.Lock()
		j.state = StateQueued
		j.mu.Unlock()
		s.journal(record{ID: j.id, Tenant: j.tenant, State: StateQueued, Retries: retries, Time: time.Now().UTC()})
		s.q.requeue(j)
		s.m.queued.Inc()
		s.m.queueDepth.Set(int64(s.q.len()))
	})
}

// setQueuedForRestart journals a job back to queued without re-queueing
// it in this process — the drain path, where the queue itself is closed.
func (s *Server) setQueuedForRestart(j *job) {
	j.mu.Lock()
	j.state = StateQueued
	retries := j.retries
	j.mu.Unlock()
	s.journal(record{ID: j.id, Tenant: j.tenant, State: StateQueued, Retries: retries, Time: time.Now().UTC()})
}

// runJob runs one claimed job to its next lifecycle edge.
func (s *Server) runJob(j *job) {
	// Chaos in the pool: a seeded stall before the claim turns into work,
	// shaking out ordering assumptions between claim, cancel and drain.
	s.cfg.Base.Chaos.Stall()

	j.mu.Lock()
	if j.cancelled {
		j.mu.Unlock()
		s.finishJob(j, StateCancelled, nil, "cancelled while queued")
		return
	}
	j.state = StateRunning
	now := time.Now().UTC()
	if j.started.IsZero() {
		j.started = now
	}
	retries := j.retries
	j.mu.Unlock()

	s.journal(record{ID: j.id, Tenant: j.tenant, State: StateRunning, Retries: retries, Time: now})
	s.m.running.Inc()
	s.m.active.Add(1)
	defer s.m.active.Add(-1)
	s.trace(obs.EvJobStart, j.id)

	// normalize resolved the program at submit time; an error here means a
	// hand-edited journal record.
	program, err := j.spec.Program()
	if err != nil {
		s.finishJob(j, StateFailed, nil, fmt.Sprintf("unresolvable program (%s): %v", specName(&j.spec), err))
		return
	}
	cfg := j.spec.Config(s.cfg.Base)
	cfg.CheckpointPath = s.st.checkpointPath(j.id)
	cfg.Stop = j.stop
	cfg.OnProgress = func(p cxlmc.Progress) {
		j.mu.Lock()
		j.progress = &p
		j.mu.Unlock()
	}
	// Armed identically on every retry, so the config digest is stable
	// across resumes; a pre-pass that fails fails on every retry too.
	if cfg, err = cxlmc.Arm(cfg, program); err != nil {
		s.finishJob(j, StateFailed, nil, err.Error())
		return
	}

	start := time.Now()
	res, err := cxlmc.Run(cfg, program)
	s.noteDuration(time.Since(start))
	s.classify(j, res, err)
}

// classify turns one run's outcome into the job's next state:
//
//   - engine error: transient (injected I/O and friends) retries with
//     backoff up to MaxRetries, permanent (bad program, identity
//     mismatch) fails;
//   - interrupted: a client cancel ends the job; a server drain leaves
//     it journaled for the next process;
//   - degraded stop: the governor's budget hit — resume from the
//     checkpoint as long as the run is advancing, strike out after
//     MaxRetries attempts with no progress;
//   - otherwise: done, with the full Result (bugs and repro tokens).
func (s *Server) classify(j *job, res *cxlmc.Result, err error) {
	if err != nil {
		if chaos.IsTransient(err) {
			j.mu.Lock()
			j.retries++
			attempt := j.retries
			j.mu.Unlock()
			if attempt > s.cfg.MaxRetries {
				s.finishJob(j, StateFailed, nil, fmt.Sprintf("transient failures exhausted %d retries: %v", s.cfg.MaxRetries, err))
				return
			}
			s.retryJob(j, StateQueued, fmt.Sprintf("transient: %v", err), attempt)
			return
		}
		s.finishJob(j, StateFailed, nil, err.Error())
		return
	}

	j.mu.Lock()
	cancelled := j.cancelled
	j.mu.Unlock()

	switch {
	case res.Interrupted && cancelled:
		s.finishJob(j, StateCancelled, res, "cancelled")
	case res.Interrupted:
		// Drain: the engine already checkpointed; hand the job to the
		// next process.
		s.setQueuedForRestart(j)
	case res.Degraded && !res.Complete:
		s.m.degraded.Inc()
		j.mu.Lock()
		progressed := res.Executions > j.lastExecs
		j.lastExecs = res.Executions
		if progressed {
			j.strikes = 0
		} else {
			j.strikes++
		}
		strikes := j.strikes
		j.retries++
		j.mu.Unlock()
		if strikes > s.cfg.MaxRetries {
			s.finishJob(j, StateFailed, res, fmt.Sprintf("degraded with no progress after %d attempts (budget too small at %d executions)", strikes, res.Executions))
			return
		}
		// A progressing degraded job resumes at the base interval no
		// matter how many times it has been paused (strikes == 0 then);
		// only consecutive no-progress attempts escalate.
		s.retryJob(j, StateDegraded, fmt.Sprintf("governor stopped the run at %d executions to hold its budget", res.Executions), strikes)
	default:
		s.finishJob(j, StateDone, res, "")
	}
}

// Drain stops the server gracefully: submissions are refused, the queue
// closes (queued jobs stay journaled as queued), every running job is
// stopped at its next execution boundary — the engine writes its final
// checkpoint — and journaled back to queued, the pool exits, and the
// HTTP server drains in-flight requests (a parked status request is
// answered at once, with the state its job is in). A restarted server picks all of
// it up. Returns nil when everything drained before ctx expired.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	running := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning || j.state == StateDegraded {
			running = append(running, j)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()

	s.logf("jobs: draining (%d running, %d queued)", len(running), s.q.len())
	s.quitOnce.Do(func() { close(s.quit) })
	s.q.close()
	for _, j := range running {
		j.requestStop()
	}

	poolDone := make(chan struct{})
	go func() { s.wg.Wait(); close(poolDone) }()
	var drainErr error
	select {
	case <-poolDone:
	case <-ctx.Done():
		drainErr = ctx.Err()
	}

	// Running jobs were journaled back to queued by their pool workers
	// (classify's drain arm). Jobs the pool never reached are already
	// journaled queued from submit time, so "persist the queue" is
	// complete either way.
	if err := s.http.Shutdown(ctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if s.tracer != nil {
		s.tracer.Flush()
	}
	s.jmu.Lock()
	s.st.close()
	s.jmu.Unlock()
	return drainErr
}

// Close stops the server hard: listeners drop, pool workers are told to
// stop, nothing further is journaled beyond what already was. Prefer
// Drain.
func (s *Server) Close() error {
	s.quitOnce.Do(func() { close(s.quit) })
	s.q.close()
	s.mu.Lock()
	for _, j := range s.jobs {
		j.requestStop()
	}
	s.mu.Unlock()
	s.wg.Wait()
	err := s.http.Close()
	s.jmu.Lock()
	s.st.close()
	s.jmu.Unlock()
	return err
}

// crash simulates kill -9 for restart-parity tests: journaling stops
// dead first (no terminal records escape), then everything running is
// abandoned. The engines' periodic checkpoints on disk are exactly what
// a real SIGKILL leaves behind.
func (s *Server) crash() {
	s.crashed.Store(true)
	s.Close()
}
