package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
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
	// version-2 checkpoint format, interchangeable with single-process
	// checkpoints, on the engine's cadence — at the first accepted
	// completion once CheckpointEvery executions or CheckpointInterval have
	// passed (neither set means every 2s) — so SIGKILL-ing the coordinator
	// mid-run loses at most that much; Chaos
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
	// leaseTTL bounds how long a worker may take to complete a lease; 0
	// means core.DefaultLeaseTTL. Expired leases are reclaimed and
	// re-issued. Only tests shorten or lengthen it.
	leaseTTL time.Duration
}

// Coordinator owns the distributed frontier and serves the worker API —
// POST /v3/turn — on the status server every cxlmc process has: /metrics
// (Prometheus text), /statusz (JSON) and /debug/pprof come with it.
type Coordinator struct {
	cfg        CoordinatorConfig
	cfgDigest  string
	progDigest string
	// run names this start of the coordinator, drawn at random: the frontier
	// numbers units from 1 and epochs from 0 at every start, and a lease of
	// the last start must not complete into the unit that bears its number now.
	run string
	f   *core.MemFrontier
	// ledger keeps the books of the frontier f holds, as the engine's keeps
	// those of its queue. f is credited with the resumed tally, so
	// f.Progress is always the whole exploration.
	ledger *core.Ledger
	srv    *obs.Server
	reg    *obs.Registry
	tracer *obs.Tracer

	mu          sync.Mutex
	stopFlag    bool
	interrupted bool
	// parked counts the turns waiting for a unit — the waiting set a
	// returned remainder is split for — and wake is closed (and replaced) by
	// every completion and stop, for them and for Wait to look again.
	parked int
	wake   chan struct{}
	// owing names the workers whose park ran out, who were answered empty and
	// have not yet asked again: on their way, between two calls. Wait does
	// not return until they have arrived and heard the outcome, and none of
	// the inflight requests is still being answered.
	owing    map[string]bool
	inflight int
	// foreign counts the completions that named another start's lease.
	foreign int
	idem    *idemCache

	mLeaseActive *obs.Gauge
	mReclaims    *obs.Counter
	mStales      *obs.Counter
	mRPCRetries  *obs.Counter
	mCompletes   *obs.Counter
	mGrants      *obs.Counter
	mDonated     *obs.Counter
}

// StartCoordinator seeds the frontier (resuming Check.CheckpointPath if it
// holds a valid checkpoint; a corrupt one is quarantined), starts the
// HTTP server and returns immediately. Call Wait for the result.
func StartCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Program == nil {
		return nil, fmt.Errorf("dist: nil program")
	}
	if cfg.leaseTTL <= 0 {
		cfg.leaseTTL = core.DefaultLeaseTTL
	}
	if cfg.Check.Obs == nil {
		cfg.Check.Obs = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if cfg.Check.EventTrace != nil {
		tracer = obs.NewTracer(0, 1024, cfg.Check.EventTrace)
	}
	ledger, units, inherited, err := core.OpenLedger(cfg.Check, cfg.Program, tracer)
	if err != nil {
		return nil, err
	}
	var nonce [8]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, fmt.Errorf("dist: drawing the run nonce: %w", err)
	}
	retire(nil)
	c := &Coordinator{
		cfg:    cfg,
		run:    hex.EncodeToString(nonce[:]),
		ledger: ledger,
		reg:    cfg.Check.Obs,
		tracer: tracer,
		wake:   make(chan struct{}),
		owing:  make(map[string]bool),
		idem:   newIdemCache(512),
	}
	c.cfgDigest, c.progDigest = ledger.Digests()
	c.mLeaseActive = c.reg.Gauge("cxlmc_lease_active", "work-unit leases currently held by workers")
	c.mReclaims = c.reg.Counter("cxlmc_lease_reclaims_total", "leases reclaimed after their holder missed the deadline")
	c.mStales = c.reg.Counter("cxlmc_lease_stale_completions_total", "completion reports rejected for a stale lease epoch")
	c.mRPCRetries = c.reg.Counter("cxlmc_rpc_retries_total", "transport retries reported by workers")
	c.mCompletes = c.reg.Counter("cxlmc_lease_completions_total", "work units completed by workers")
	c.mGrants = c.reg.Counter("cxlmc_lease_grants_total", "work-unit leases granted")
	c.mDonated = c.reg.Counter("cxlmc_units_donated_total", "unexplored work units returned by workers completing a lease early")

	c.f = core.NewMemFrontier(core.MemFrontierConfig{
		LeaseTTL: cfg.leaseTTL,
		OnEvent:  c.onLeaseEvent,
	}, units)
	c.f.Credit(inherited)

	c.srv, err = obs.NewServer(cfg.Addr, c.reg, func() any { return c.statusz() },
		obs.Route{Pattern: "POST /v3/turn", Handler: c.api(c.handleTurn)})
	if err != nil {
		c.f.Close()
		return nil, fmt.Errorf("dist: %w", err)
	}
	return c, nil
}

// onLeaseEvent observes MemFrontier lease-table transitions (called with
// the frontier's lock held — metrics and tracer only, both fast).
func (c *Coordinator) onLeaseEvent(class string, unit, epoch uint64) {
	switch class {
	case "grant":
		c.mLeaseActive.Add(1)
		c.mGrants.Inc()
		c.tracer.Record(-1, obs.EvLeaseGrant, int64(unit), int64(epoch))
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

// api wraps the worker-API handler. Server-side fault injection: a chaos 5xx
// makes the coordinator answer 503 without processing the request, exercising
// the workers' retry path. And the count of requests being answered, which
// Wait lets reach zero — each answer flushed to its connection first — before
// it returns.
func (c *Coordinator) api(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c.cfg.Check.Chaos.Net5xx() {
			http.Error(w, "chaos: injected 5xx", http.StatusServiceUnavailable)
			return
		}
		c.mu.Lock()
		c.inflight++
		c.mu.Unlock()
		h(w, r)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		c.mu.Lock()
		if c.inflight--; c.inflight == 0 {
			c.wakeLocked()
		}
		c.mu.Unlock()
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
		"stale":      fs.StaleRejects + c.foreign,
		"stopping":   c.stopFlag,
		"elapsed_ms": c.ledger.Elapsed().Milliseconds(),
	}
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
	raw, ok := c.idem.get(reqID) // reply remembers nothing under an empty ID
	if !ok {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(raw)
	return true
}

// wakeLocked wakes every parked turn and Wait. Called with c.mu held.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
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

// handleTurn is the whole worker API. A request that does not explore what
// this coordinator explores is refused before anything else; one already
// answered is answered the same again. Then the lease handed back, if any, is
// folded in, and a request that wants a unit is answered with one, Done or
// Stop as soon as one exists. Until then it parks here, as engine.take parks
// on its cond: every completion and stop wakes it to look again, and when the
// park the caller allowed runs out it is answered empty and asks again.
// Nobody parks longer than a lease lives — an expired lease is reclaimed by
// whoever looks next, and a parked request is who looks.
func (c *Coordinator) handleTurn(w http.ResponseWriter, r *http.Request) {
	var req turnRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
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
	if req.Done == nil && !req.Want {
		http.Error(w, "bad request: a turn hands back a lease (done), asks for one (want), or both", http.StatusBadRequest)
		return
	}
	if c.replayed(w, req.ReqID) {
		return
	}
	resp := turnResponse{
		Run:              c.run,
		LeaseTTLMs:       c.cfg.leaseTTL.Milliseconds(),
		ContinueAfterBug: c.cfg.Check.ContinueAfterBug,
	}
	if req.Done != nil {
		var err error
		if resp.Stale, err = c.complete(req.Done); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), min(time.Duration(req.ParkMs)*time.Millisecond, c.cfg.leaseTTL))
	defer cancel()
	c.mu.Lock()
	// The call this worker owed, if it did, has arrived; Wait looks again
	// when the last request in flight — this one at the earliest — is answered.
	delete(c.owing, req.Worker)
	for {
		// The wake-up is read before looking, so a completion that lands
		// between the look and the wait is not slept through.
		wake := c.wake
		if req.Want {
			resp.Unit, _ = c.f.TryLease(req.Worker)
		}
		if resp.Unit == nil {
			resp.Stop = c.stopFlag
			resp.Done = !c.stopFlag && c.f.Done()
		}
		if resp.Unit != nil || resp.Done || resp.Stop || !req.Want {
			break
		}
		if ctx.Err() != nil {
			// Out of park and the run unresolved: the answer is empty and the
			// worker asks again — the one worker that wants a unit and is not
			// inside a call. This critical section decides the answer is not
			// final and Wait reads owing in another, after seeing the run
			// resolve: a worker is either told the outcome or waited for, never
			// sent off to an address that is about to close.
			c.owing[req.Worker] = true
			break
		}
		c.parked++
		c.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		}
		c.mu.Lock()
		c.parked--
	}
	resp.Waiting = c.parked
	c.mu.Unlock()
	c.reply(w, req.ReqID, resp)
}

// complete folds the lease d hands back into the frontier and reports whether
// it was stale: expired and re-issued, or another start's, which changes
// nothing here. A returned snapshot nobody can restore would fail whichever
// worker leased it next: every one decodes or nothing is applied (the error),
// and the lease stays out for its holder to retry, or to expire and be reclaimed.
func (c *Coordinator) complete(d *turnDone) (stale bool, err error) {
	if d.Run != c.run {
		c.mu.Lock()
		c.foreign++
		c.mu.Unlock()
		c.onLeaseEvent("stale", d.Unit, d.Epoch)
		return true, nil
	}
	trees, err := restoreUnits(d.Report.Remainder)
	if err != nil {
		return false, fmt.Errorf("remainder %w", err)
	}
	returned := len(trees)
	if returned > 0 {
		// Feed the waiting, and the worker that just made room for them:
		// split what came back until there is a unit for each, or nothing
		// splits further.
		c.mu.Lock()
		mouths := c.parked + 1
		c.mu.Unlock()
		for i := 0; i < len(trees) && len(trees) < mouths; {
			if kids := trees[i].Split(); len(kids) > 0 {
				trees = append(trees, kids...)
			} else {
				i++
			}
		}
		if len(trees) > returned {
			d.Report.Remainder = d.Report.Remainder[:0]
			for _, tr := range trees {
				d.Report.Remainder = append(d.Report.Remainder, tr.Snapshot())
			}
		}
	}
	stale = c.f.CompleteReport(d.Unit, d.Epoch, d.Report)
	c.mu.Lock()
	if !stale {
		c.mRPCRetries.Add(int64(d.Report.RPCRetries))
		c.mDonated.Add(int64(returned))
		if len(d.Report.Bugs) > 0 && !c.cfg.Check.ContinueAfterBug {
			// Mirror the single-process engine: first bug stops the run.
			c.stopFlag = true
			c.f.Stop()
		}
	}
	c.wakeLocked()
	c.mu.Unlock()
	if !stale {
		c.checkpoint()
	}
	return stale, nil
}

// checkpoint is the coordinator's boundary, reached at every accepted
// completion — the only event that changes what f.Outstanding returns: the
// periodic checkpoint is written here when the engine's cadence is due.
func (c *Coordinator) checkpoint() {
	if t, _, _ := c.f.Progress(); c.ledger.Due(t.Executions) {
		c.ledger.Checkpoint(c.f.Outstanding)
	}
}

// Wait blocks until the exploration completes (every unit explored and
// reported), the coordinator stops on a bug, or stop/Check.Stop fires; then
// it sees every worker told, retires the server (see lingering), writes the
// final checkpoint and returns the merged result. The bug set is sorted
// (kind, message) and repro tokens are minimized over the global set, so a
// distributed run's output is comparable line-for-line with a
// single-process run's.
func (c *Coordinator) Wait(stop <-chan struct{}) (*core.Result, error) {
	stopCh, cfgStop := stop, c.cfg.Check.Stop
	// patience is armed when the run resolves or begins to stop, and bounds
	// whatever Wait still waits for: no lease is granted past a stop, so one
	// TTL on every lease still out has lapsed, whoever held it, and a worker
	// that owes a call and has not made it died between two.
	var patience <-chan time.Time
	complete, spent := false, false
	for {
		c.mu.Lock()
		wake, stopping := c.wake, c.stopFlag
		busy := len(c.owing) > 0 || c.inflight > 0
		c.mu.Unlock()
		complete = c.f.Done()
		resolved := complete
		if stopping && !complete {
			// Stopping: outstanding leases resolve first (complete, or expire
			// and are reclaimed) so the final checkpoint holds every
			// unexplored unit.
			_, _, leased := c.f.Progress()
			resolved = leased == 0
		}
		// Resolved, every parked turn has been woken to Done or Stop and the
		// last to hand a lease back heard it in the same answer; whoever was
		// between two calls is about to ask and be told.
		if resolved && (!busy || spent) {
			break
		}
		if resolved {
			stopCh, cfgStop = nil, nil // a stop has nothing left to stop
		}
		if (resolved || stopping) && patience == nil {
			patience = time.After(c.cfg.leaseTTL)
		}
		select {
		case <-stopCh:
			stopCh = nil // fire once; a closed channel must not spin the loop
			c.requestStop()
		case <-cfgStop:
			// A nil channel blocks forever; only a real stop lands here.
			cfgStop = nil
			c.requestStop()
		case <-wake:
		case <-patience:
			spent = true
		}
	}
	// Like the engine's result, Stats counts the points of the units a
	// stopped run leaves unexplored. (Every unit in the frontier decodes:
	// the ledger and complete let no other in.)
	t, units := c.f.Outstanding()
	left, _ := restoreUnits(units)
	fs := c.f.Stats()
	c.f.Close()
	retire(c.srv)
	c.mu.Lock()
	interrupted, stales := c.interrupted, fs.StaleRejects+c.foreign
	c.mu.Unlock()
	_, res, err := c.ledger.Close(t, left, complete, interrupted)
	c.tracer.Flush()
	if err != nil {
		return nil, err
	}
	res.LeaseReclaims, res.RPCRetries, res.StaleCompletions = fs.Reclaims, fs.RPCRetries, stales
	return res, nil
}

// lingering is the last coordinator in this process to have finished. Its
// address stays up — a turn is answered with the outcome, nothing else
// moves — until the next one starts or finishes, or the process exits.
// A worker started alongside a run of a few milliseconds may not have been
// scheduled before the run was over, and there is no moment at which a
// coordinator knows nobody else is coming; closing at once would turn that
// worker's first turn into a connection error.
var lingering struct {
	sync.Mutex
	srv *obs.Server
}

func retire(srv *obs.Server) {
	lingering.Lock()
	old := lingering.srv
	lingering.srv = srv
	lingering.Unlock()
	old.Close()
}

// requestStop is the operator's stop: no further leases, and the run is
// marked interrupted unless a bug had already stopped it.
func (c *Coordinator) requestStop() {
	c.mu.Lock()
	if !c.stopFlag {
		c.interrupted = true
	}
	c.stopFlag = true
	c.f.Stop()
	c.wakeLocked()
	c.mu.Unlock()
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
