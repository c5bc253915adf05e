package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/obs"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Check is the run's configuration, held once. Its digest-relevant
	// part (seed, GPF/Poison, step limits, ...) is what every worker must
	// match; the coordinator explores nothing itself, so of the rest it
	// reads only the plumbing: CheckpointPath persists the frontier in the
	// version-2 checkpoint format every CheckpointInterval (0 means 2s) —
	// SIGKILL-ing the coordinator mid-run loses at most that much, and the
	// file is interchangeable with single-process checkpoints; Chaos
	// injects 5xx responses on the API and I/O faults on checkpoint writes;
	// EventTrace receives lease-lifecycle events as JSONL; Obs is the
	// registry the lease metrics go to (nil creates a private one, read
	// back with Registry); Stop requests a graceful shutdown — stop issuing
	// leases, wait for outstanding ones to resolve, checkpoint, return.
	Check core.Config
	// Program is the program under test; the coordinator runs it only to
	// compute digests and to minimize repro tokens at the end.
	Program func(*core.Program)
	// Addr is the listen address (":0" picks a free port; see Addr).
	Addr string
	// LeaseTTL bounds how long a worker may sit on a work unit without
	// renewing; 0 means core.DefaultLeaseTTL. Expired leases are reclaimed
	// and re-issued.
	LeaseTTL time.Duration
}

// Coordinator owns the distributed frontier and serves the worker API —
// /v1/join, /v1/lease, /v1/renew, /v1/complete — on the status server every
// cxlmc process has: /metrics (Prometheus text), /statusz (JSON) and
// /debug/pprof come with it.
type Coordinator struct {
	cfg        CoordinatorConfig
	cfgDigest  string
	progDigest string
	f          *core.MemFrontier
	srv        *obs.Server
	reg        *obs.Registry
	tracer     *obs.Tracer
	start      time.Time

	mu          sync.Mutex
	stopFlag    bool
	interrupted bool
	// What a resumed checkpoint handed down, other than its tally (which
	// the frontier is credited with, so f.Progress is always the whole
	// exploration): elapsed time and the resilience record.
	prior   time.Duration
	resumed bool
	res     core.Resilience
	// emptySeed marks a resume from a checkpoint with no outstanding
	// units: the exploration is already complete and Wait returns at once
	// (the frontier itself never reports Done without having held units).
	emptySeed bool
	// starved tracks workers whose lease ask recently came up empty: busy
	// workers are told of them on renew and yield, and the remainders they
	// return are split until everyone can be fed.
	starved map[string]time.Time
	idem    *idemCache

	cpStop chan struct{}
	cpDone chan struct{}

	mLeaseActive *obs.Gauge
	mReclaims    *obs.Counter
	mStales      *obs.Counter
	mRPCRetries  *obs.Counter
	mCompletes   *obs.Counter
	mGrants      *obs.Counter
	mDonated     *obs.Counter
	mQuarantines *obs.Counter
}

// starvedWindow is how long an empty lease response marks its worker as
// hungry.
const starvedWindow = 2 * time.Second

// stopLinger is how long the coordinator keeps answering (with Stop or
// Done) after the run resolves, so polling workers observe the outcome.
const stopLinger = 250 * time.Millisecond

// StartCoordinator seeds the frontier (resuming Check.CheckpointPath if it
// holds a valid checkpoint; a corrupt one is quarantined), starts the
// HTTP server and the checkpoint loop, and returns immediately. Call
// Wait for the result.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("dist: nil program")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = core.DefaultLeaseTTL
	}
	if cfg.Check.CheckpointInterval <= 0 {
		cfg.Check.CheckpointInterval = 2 * time.Second
	}
	if cfg.Check.Obs == nil {
		cfg.Check.Obs = obs.NewRegistry()
	}
	cfgDigest, progDigest, err := core.ExplorationDigests(cfg.Check, cfg.Program)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:        cfg,
		cfgDigest:  cfgDigest,
		progDigest: progDigest,
		reg:        cfg.Check.Obs,
		start:      time.Now(),
		starved:    make(map[string]time.Time),
		idem:       newIdemCache(512),
		cpStop:     make(chan struct{}),
		cpDone:     make(chan struct{}),
	}
	if cfg.Check.EventTrace != nil {
		c.tracer = obs.NewTracer(0, 1024, cfg.Check.EventTrace)
	}
	c.mLeaseActive = c.reg.Gauge("cxlmc_lease_active", "work-unit leases currently held by workers")
	c.mReclaims = c.reg.Counter("cxlmc_lease_reclaims_total", "leases reclaimed after their holder missed the deadline")
	c.mStales = c.reg.Counter("cxlmc_lease_stale_completions_total", "completion reports rejected for a stale lease epoch")
	c.mRPCRetries = c.reg.Counter("cxlmc_rpc_retries_total", "transport retries reported by workers")
	c.mCompletes = c.reg.Counter("cxlmc_lease_completions_total", "work units completed by workers")
	c.mGrants = c.reg.Counter("cxlmc_lease_grants_total", "work-unit leases granted")
	c.mDonated = c.reg.Counter("cxlmc_units_donated_total", "unexplored work units returned by workers completing a lease early")
	c.mQuarantines = c.reg.Counter("cxlmc_checkpoint_quarantines_total", "corrupt checkpoints quarantined at startup")

	units, inherited, err := c.seedUnits()
	if err != nil {
		return nil, err
	}
	c.f = core.NewMemFrontier(core.MemFrontierConfig{
		LeaseTTL: cfg.LeaseTTL,
		OnEvent:  c.onLeaseEvent,
	}, units)
	c.f.Credit(inherited)

	c.srv, err = obs.NewServerRoutes(cfg.Addr, c.reg, func() any { return c.statusz() },
		obs.Route{Pattern: "POST /v1/join", Handler: c.withChaos(c.handleJoin)},
		obs.Route{Pattern: "POST /v1/lease", Handler: c.withChaos(c.handleLease)},
		obs.Route{Pattern: "POST /v1/renew", Handler: c.withChaos(c.handleRenew)},
		obs.Route{Pattern: "POST /v1/complete", Handler: c.withChaos(c.handleComplete)})
	if err != nil {
		c.f.Close()
		return nil, fmt.Errorf("dist: %w", err)
	}
	go c.checkpointLoop()
	return c, nil
}

// seedUnits loads the initial frontier: the checkpoint's outstanding
// units when resuming, otherwise a single fresh whole-tree unit. It also
// returns the tally the checkpoint had reached, for the frontier to be
// credited with.
func (c *Coordinator) seedUnits() (units [][]byte, inherited core.Tally, err error) {
	path := c.cfg.Check.CheckpointPath
	r, quarantined, err := core.ResumeCheckpoint(path, c.cfg.Check.Seed, c.cfgDigest, c.progDigest, c.cfg.Check.Chaos)
	if err != nil {
		return nil, inherited, err
	}
	if quarantined {
		c.res.Quarantined = true
		c.mQuarantines.Inc()
		c.tracer.RecordS(-1, obs.EvCheckpointQuarantine, 0, path)
	}
	if r == nil {
		return [][]byte{decision.NewTree().Snapshot()}, inherited, nil
	}
	inherited, c.res = r.Total, r.Res
	c.prior = r.Elapsed
	c.resumed = true
	for _, tr := range r.Units {
		units = append(units, tr.Snapshot())
	}
	// Nothing left: Wait finishes immediately with the checkpointed
	// result, and joining workers are told Done on their first lease.
	c.emptySeed = len(units) == 0
	return units, inherited, nil
}

// onLeaseEvent observes MemFrontier lease-table transitions (called with
// the frontier's lock held — metrics and tracer only, both fast).
func (c *Coordinator) onLeaseEvent(class string, unit, epoch uint64) {
	switch class {
	case "grant":
		c.mLeaseActive.Add(1)
		c.mGrants.Inc()
		c.tracer.Record(-1, obs.EvLeaseGrant, int64(unit), int64(epoch))
	case "renew":
		c.tracer.Record(-1, obs.EvLeaseRenew, int64(unit), int64(epoch))
	case "complete":
		c.mLeaseActive.Add(-1)
		c.mCompletes.Inc()
		c.tracer.Record(-1, obs.EvLeaseComplete, int64(unit), int64(epoch))
	case "reclaim":
		c.mLeaseActive.Add(-1)
		c.mReclaims.Inc()
		c.tracer.Record(-1, obs.EvLeaseReclaim, int64(unit), int64(epoch))
	case "stale":
		c.mStales.Inc()
		c.tracer.Record(-1, obs.EvLeaseStale, int64(unit), int64(epoch))
	}
}

// Addr returns the bound "host:port" address.
func (c *Coordinator) Addr() string { return c.srv.Addr() }

// withChaos wraps a handler with server-side fault injection: a chaos
// 5xx makes the coordinator answer 503 without processing the request,
// exercising the workers' retry path.
func (c *Coordinator) withChaos(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.cfg.Check.Chaos.Net5xx() {
			http.Error(w, "chaos: injected 5xx", http.StatusServiceUnavailable)
			return
		}
		h(w, r)
	}
}

func (c *Coordinator) statusz() map[string]any {
	t, queued, leased := c.f.Progress()
	fs := c.f.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]any{
		"role":       "coordinator",
		"executions": t.Executions,
		"steps":      t.Steps,
		"bugs":       len(t.Bugs),
		"queued":     queued,
		"leased":     leased,
		"reclaims":   fs.Reclaims,
		"stale":      fs.StaleRejects,
		"stopping":   c.stopFlag,
		"elapsed_ms": (c.prior + time.Since(c.start)).Milliseconds(),
	}
}

// decode parses a JSON request body, answering 400 on garbage.
func decode[T any](w http.ResponseWriter, r *http.Request, req *T) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// reply sends resp as JSON, remembering it under the request's ID so a
// duplicated delivery (network dup, client retry after a lost response)
// replays the identical response instead of re-applying the effect.
func (c *Coordinator) reply(w http.ResponseWriter, reqID string, resp any) {
	raw, err := json.Marshal(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if reqID != "" {
		c.idem.put(reqID, raw)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
}

// replayed answers a remembered response for a duplicate request ID.
func (c *Coordinator) replayed(w http.ResponseWriter, reqID string) bool {
	if reqID == "" {
		return false
	}
	raw, ok := c.idem.get(reqID)
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
	return true
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Seed != c.cfg.Check.Seed {
		http.Error(w, fmt.Sprintf("seed mismatch: coordinator explores seed %d, worker %q offers %d",
			c.cfg.Check.Seed, req.Worker, req.Seed), http.StatusConflict)
		return
	}
	if req.ConfigDigest != c.cfgDigest || req.ProgramDigest != c.progDigest {
		http.Error(w, fmt.Sprintf("digest mismatch: coordinator explores %s/%s, worker %q offers %s/%s — configuration or program differs",
			c.cfgDigest, c.progDigest, req.Worker, req.ConfigDigest, req.ProgramDigest), http.StatusConflict)
		return
	}
	c.reply(w, "", joinResponse{
		LeaseTTLMs:       c.cfg.LeaseTTL.Milliseconds(),
		ContinueAfterBug: c.cfg.Check.ContinueAfterBug,
	})
}

// unfed returns how many workers recently asked for a unit, got none, and
// will not find one queued when they ask again.
func (c *Coordinator) unfed() int {
	_, queued, _ := c.f.Progress()
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	for wk, t := range c.starved {
		if now.Sub(t) > starvedWindow {
			delete(c.starved, wk)
		}
	}
	if n := len(c.starved) - queued; n > 0 {
		return n
	}
	return 0
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decode(w, r, &req) {
		return
	}
	if c.replayed(w, req.ReqID) {
		return
	}
	c.mu.Lock()
	stopping := c.stopFlag
	c.mu.Unlock()
	var resp leaseResponse
	if stopping {
		resp.Stop = true
		c.reply(w, req.ReqID, resp)
		return
	}
	u, done := c.f.TryLease(req.Worker)
	c.mu.Lock()
	switch {
	case u != nil:
		delete(c.starved, req.Worker)
		resp.Unit = &wireUnit{ID: u.ID, Epoch: u.Epoch, Snapshot: u.Snapshot}
	case done:
		resp.Done = true
	default:
		// Nothing free right now but leases are outstanding: mark this
		// worker starved (the holders hear of it on renew) and have it ask
		// again shortly.
		c.starved[req.Worker] = time.Now()
		resp.WaitMs = 25
	}
	c.mu.Unlock()
	c.reply(w, req.ReqID, resp)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewRequest
	if !decode(w, r, &req) {
		return
	}
	if c.replayed(w, req.ReqID) {
		return
	}
	var resp renewResponse
	for _, l := range req.Leases {
		if !c.f.Renew(l.ID, l.Epoch) {
			resp.StaleIDs = append(resp.StaleIDs, l.ID)
		}
	}
	resp.Wanted = c.unfed()
	c.mu.Lock()
	resp.Stop = c.stopFlag
	c.mu.Unlock()
	c.reply(w, req.ReqID, resp)
}

// restoreUnits decodes unit snapshots; one that does not decode fails them
// all.
func restoreUnits(snaps [][]byte) ([]*decision.Tree, error) {
	trees := make([]*decision.Tree, len(snaps))
	for i, raw := range snaps {
		trees[i] = decision.NewTree()
		if err := trees[i].Restore(raw); err != nil {
			return nil, fmt.Errorf("unit %d of %d: %w", i+1, len(snaps), err)
		}
	}
	return trees, nil
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !decode(w, r, &req) {
		return
	}
	if c.replayed(w, req.ReqID) {
		return
	}
	// A returned snapshot nobody can restore would fail whichever worker
	// leased it next: every one decodes or nothing is applied, and the lease
	// stays out for its holder to retry, or to expire and be reclaimed.
	trees, err := restoreUnits(req.Report.Remainder)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request: remainder %v", err), http.StatusBadRequest)
		return
	}
	returned := len(trees)
	if returned > 0 {
		// Feed the waiting, and the worker that just made room for them:
		// split what came back until there is a unit for each, or nothing
		// splits further.
		want := c.unfed() + 1
		for i := 0; i < len(trees) && len(trees) < want; {
			if kids := trees[i].Split(); len(kids) > 0 {
				trees = append(trees, kids...)
			} else {
				i++
			}
		}
		if len(trees) > returned {
			req.Report.Remainder = req.Report.Remainder[:0]
			for _, tr := range trees {
				req.Report.Remainder = append(req.Report.Remainder, tr.Snapshot())
			}
		}
	}
	var resp completeResponse
	resp.Stale = c.f.CompleteReport(req.UnitID, req.Epoch, req.Report)
	c.mu.Lock()
	if !resp.Stale {
		c.mRPCRetries.Add(int64(req.Report.RPCRetries))
		c.mDonated.Add(int64(returned))
		if len(req.Report.Bugs) > 0 && !c.cfg.Check.ContinueAfterBug {
			// Mirror the single-process engine: first bug stops the run.
			c.stopFlag = true
			c.f.Stop()
		}
	}
	resp.Stop = c.stopFlag
	c.mu.Unlock()
	c.reply(w, req.ReqID, resp)
}

// checkpointLoop periodically persists the frontier.
func (c *Coordinator) checkpointLoop() {
	defer close(c.cpDone)
	if c.cfg.Check.CheckpointPath == "" {
		return
	}
	t := time.NewTicker(c.cfg.Check.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-c.cpStop:
			return
		case <-t.C:
			if err := c.writeCheckpoint(false); err != nil {
				c.mu.Lock()
				c.res.CheckpointErrors++
				c.mu.Unlock()
			}
		}
	}
}

// writeCheckpoint persists the current frontier in the single-process
// checkpoint format. The frontier's tally is the sum of the workers' final
// checkpoints' totals, so like those it excludes the points the outstanding
// units embed — exactly what the format asks for. Tally and units come from
// one locked read, so a completion can never fall between them.
func (c *Coordinator) writeCheckpoint(complete bool) error {
	t, units := c.f.Outstanding()
	c.mu.Lock()
	cp := core.NewCheckpoint(c.cfg.Check.Seed, c.cfgDigest, c.progDigest, units,
		t, c.res, c.prior+time.Since(c.start), complete, c.interrupted)
	c.mu.Unlock()
	return core.WriteCheckpoint(c.cfg.Check.CheckpointPath, cp, c.cfg.Check.Chaos)
}

// Wait blocks until the exploration completes (every unit explored and
// reported), the coordinator stops on a bug, or stop/Check.Stop fires;
// then it shuts the server down, writes the final checkpoint and returns
// the merged result. The bug set is sorted (kind, message) and repro
// tokens are minimized over the global set, so a distributed run's
// output is comparable line-for-line with a single-process run's.
func (c *Coordinator) Wait(stop <-chan struct{}) (*core.Result, error) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	stopCh, cfgStop := stop, c.cfg.Check.Stop
	complete := c.emptySeed
	for !complete {
		select {
		case <-stopCh:
			stopCh = nil // fire once; a closed channel must not spin the loop
			c.requestStop(true)
		case <-cfgStop:
			// A nil channel blocks forever; only a real stop lands here.
			cfgStop = nil
			c.requestStop(true)
		case <-tick.C:
		}
		if c.f.Done() {
			complete = true
			break
		}
		c.mu.Lock()
		stopping := c.stopFlag
		c.mu.Unlock()
		if stopping {
			// Stopping: wait for outstanding leases to resolve (complete,
			// or expire and be reclaimed) so the final checkpoint
			// holds every unexplored unit.
			if _, _, leased := c.f.Progress(); leased == 0 {
				break
			}
		}
	}
	c.requestStop(false)
	close(c.cpStop)
	<-c.cpDone
	// Linger briefly with the stop flag set before tearing the server
	// down: idle workers poll every ~25ms and need to see one Stop/Done
	// response to exit promptly, instead of retrying a dead address until
	// their give-up timer fires.
	time.Sleep(stopLinger)
	c.srv.Close()
	t, units := c.f.Outstanding()
	// Like the engine's result, Stats counts the points of the units a
	// stopped run leaves unexplored. (Every unit in the frontier decodes:
	// ResumeCheckpoint and handleComplete let no other in.)
	left, _ := restoreUnits(units)
	for _, tr := range left {
		t.Add(core.TreeCounters(tr))
	}
	fs := c.f.Stats()
	c.f.Close()
	c.mu.Lock()
	stats := core.Stats{
		Counters:         t.Counters,
		Resilience:       c.res,
		Elapsed:          c.prior + time.Since(c.start),
		Complete:         complete,
		Interrupted:      c.interrupted,
		Resumed:          c.resumed,
		LeaseReclaims:    fs.Reclaims,
		RPCRetries:       fs.RPCRetries,
		StaleCompletions: fs.StaleRejects,
	}
	c.mu.Unlock()
	core.SortBugs(t.Bugs)
	core.MinimizeBugs(c.cfg.Check, c.cfg.Program, t.Bugs)
	if c.cfg.Check.CheckpointPath != "" {
		if err := c.writeCheckpoint(complete); err != nil {
			// Like the engine, only a failed FINAL write fails the run:
			// without it the remaining frontier would be lost.
			if !complete {
				return nil, err
			}
			c.mu.Lock()
			c.res.CheckpointErrors++
			stats.CheckpointErrors = c.res.CheckpointErrors
			c.mu.Unlock()
		}
	}
	c.tracer.Flush()
	return &core.Result{Stats: stats, Bugs: t.Bugs, Seed: c.cfg.Check.Seed, GPF: c.cfg.Check.GPF}, nil
}

// requestStop flips the stop flag; interrupted marks it operator-driven.
func (c *Coordinator) requestStop(interrupted bool) {
	c.mu.Lock()
	if interrupted && !c.stopFlag {
		c.interrupted = true
	}
	c.stopFlag = true
	c.mu.Unlock()
	c.f.Stop()
}

// Registry exposes the coordinator's metrics registry (tests, snapshot
// dumps).
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// idemCache is a bounded request-ID → response cache backing the API's
// idempotency: a duplicated request replays its original response.
type idemCache struct {
	mu    sync.Mutex
	cap   int
	m     map[string][]byte
	order []string
}

func newIdemCache(capacity int) *idemCache {
	return &idemCache{cap: capacity, m: make(map[string][]byte, capacity)}
}

func (ic *idemCache) put(id string, raw []byte) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	if _, ok := ic.m[id]; ok {
		return
	}
	if len(ic.order) >= ic.cap {
		old := ic.order[0]
		ic.order = ic.order[1:]
		delete(ic.m, old)
	}
	ic.m[id] = raw
	ic.order = append(ic.order, id)
}

func (ic *idemCache) get(id string) ([]byte, bool) {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	raw, ok := ic.m[id]
	return raw, ok
}
