package dist

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Check is the run's configuration, held once; its digests must match
	// the coordinator's or the join is rejected. CheckpointPath must be
	// empty (the coordinator owns durable state). MaxExecutions, MaxTime,
	// Stop and the MetricsAddr status server span the worker's lifetime,
	// not one lease. Chaos also injects network faults into this worker's
	// transport, and Obs also gets a cxlmc_rpc_retries_total counter.
	Check core.Config
	// Program is the program under test.
	Program func(*core.Program)
	// Coordinator is the coordinator's address ("host:port" or URL).
	Coordinator string
	// Name identifies this worker in leases and logs; defaults to
	// "worker-<pid>".
	Name string
	// Transport tunes retry/backoff/timeouts; zero values are fine.
	Transport TransportConfig
}

// RemoteFrontier is the worker's end of the coordinator's HTTP API, spoken
// through the retrying transport. It holds one lease at a time: Lease
// fetches a unit and renews it in the background, Complete (or Close) ends
// the renewal.
type RemoteFrontier struct {
	t    *Transport
	name string
	ttl  time.Duration

	reqSeq atomic.Int64
	// The rest belongs to the goroutine that calls Lease, Complete and Close.
	held    *lease
	done    bool // the coordinator reported the exploration finished
	stales  int  // completions rejected for a stale epoch
	lastRep int  // transport retries already reported upstream
}

// lease is the unit a worker holds, and the renewer that keeps it.
type lease struct {
	core.LeasedUnit
	// yield is closed when the holder should stop exploring at its next
	// execution boundary and complete with whatever is left: the worker was
	// told to stop, the coordinator is stopping, other workers are waiting
	// for units, or the lease went stale (reclaimed and re-issued, so the
	// completion will be rejected and exploring on is wasted).
	yield chan struct{}
	quit  chan struct{}
	ended chan struct{}
}

// NewRemoteFrontier returns a client for the coordinator behind t. ttl is
// the lease TTL the coordinator granted at join.
func NewRemoteFrontier(t *Transport, name string, ttl time.Duration) *RemoteFrontier {
	return &RemoteFrontier{t: t, name: name, ttl: ttl}
}

// Close abandons the held lease, if any: it stops being renewed, expires,
// and the coordinator re-issues the unit.
func (rf *RemoteFrontier) Close() {
	if l := rf.held; l != nil {
		rf.held = nil
		close(l.quit)
		<-l.ended
	}
}

func (rf *RemoteFrontier) reqID(kind string) string {
	return rf.name + "-" + kind + "-" + strconv.FormatInt(rf.reqSeq.Add(1), 10)
}

// renew extends l each ttl/3, well inside the deadline even with a retry or
// two, and closes l.yield when the response (or stop) says the unit should
// go back. The first renewal is a full period after the grant, so a lease
// always buys that much exploration before it can be asked to yield.
func (rf *RemoteFrontier) renew(l *lease, stop <-chan struct{}) {
	defer close(l.ended)
	period := rf.ttl / 3
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	yielded := false
	for {
		var resp renewResponse
		select {
		case <-l.quit:
			return
		case <-stop:
			stop = nil // fire once; keep renewing until the holder completes
			resp.Stop = true
		case <-t.C:
			req := renewRequest{Worker: rf.name, ReqID: rf.reqID("renew"), Leases: []wireLease{{ID: l.ID, Epoch: l.Epoch}}}
			if err := rf.t.Call("/v1/renew", req, &resp); err != nil {
				// Unreachable coordinator: keep exploring; the next tick
				// retries, and worst case the lease expires and the unit is
				// re-issued — deterministic re-execution keeps that harmless.
				continue
			}
		}
		stale := len(resp.StaleIDs) > 0
		if (stale || resp.Stop || resp.Wanted > 0) && !yielded {
			yielded = true
			close(l.yield)
		}
		if stale {
			return
		}
	}
}

// Lease polls the coordinator until a unit is granted (returned, and renewed
// in the background from now on), or there is nothing to wait for (nil): the
// run is done or stopping, or stop fired. Transport errors degrade to
// capped-backoff retrying — an idle worker has nothing better to do than
// wait for the coordinator to come back (a restarted coordinator on the same
// address is rejoined transparently) — but an outage outlasting several lease
// TTLs makes the worker give up and finish with its local results: its leases
// have long been reclaimed, so nothing is lost, and the process never hangs
// on a dead address.
func (rf *RemoteFrontier) Lease(stop <-chan struct{}) (*lease, error) {
	backoff := 25 * time.Millisecond
	giveUp := 4 * rf.ttl
	if giveUp < 2*time.Second {
		giveUp = 2 * time.Second
	}
	var failSince time.Time
	for !fired(stop) {
		var resp leaseResponse
		wait := backoff
		err := rf.t.Call("/v1/lease", leaseRequest{Worker: rf.name, ReqID: rf.reqID("lease")}, &resp)
		switch {
		case IsRejected(err):
			return nil, fmt.Errorf("dist: lease rejected: %w", err)
		case err != nil:
			if failSince.IsZero() {
				failSince = time.Now()
			} else if time.Since(failSince) > giveUp {
				return nil, nil
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		case resp.Stop || resp.Done:
			rf.done = resp.Done
			return nil, nil
		case resp.Unit != nil:
			l := &lease{
				LeasedUnit: core.LeasedUnit{ID: resp.Unit.ID, Epoch: resp.Unit.Epoch, Snapshot: resp.Unit.Snapshot},
				yield:      make(chan struct{}),
				quit:       make(chan struct{}),
				ended:      make(chan struct{}),
			}
			rf.held = l
			go rf.renew(l, stop)
			return l, nil
		default:
			backoff, failSince = 25*time.Millisecond, time.Time{}
			if wait = time.Duration(resp.WaitMs) * time.Millisecond; wait <= 0 {
				wait = 25 * time.Millisecond
			}
		}
		t := time.NewTimer(wait)
		select {
		case <-stop:
		case <-t.C:
		}
		t.Stop()
	}
	return nil, nil
}

// fired polls a stop channel; a nil channel never fires.
func fired(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Complete ends lease l with its report, attaching the transport retries
// accrued since the last report (so the coordinator's sum stays exact across
// workers). A stale rejection is counted, not an error. A transport failure
// after retries is survivable — the lease expires and the unit is re-issued —
// so it is swallowed too; the lease stops being renewed either way.
func (rf *RemoteFrontier) Complete(l *lease, rep core.UnitReport) {
	rf.Close()
	cur := rf.t.Retries()
	rep.RPCRetries, rf.lastRep = cur-rf.lastRep, cur
	var resp completeResponse
	err := rf.t.Call("/v1/complete", completeRequest{
		Worker: rf.name,
		ReqID:  rf.reqID("complete"),
		UnitID: l.ID,
		Epoch:  l.Epoch,
		Report: rep,
	}, &resp)
	if err == nil && resp.Stale {
		rf.stales++
	}
}

// RunWorker joins the coordinator and works for it until there is nothing
// left to lease or its own budget runs out: lease a unit, resume it as an
// ordinary run from a one-unit checkpoint (core.Continue), report the final
// checkpoint's totals and return its units as the remainder, lease again. It
// returns this worker's local view — the sum of what it reported; the
// coordinator's Wait result is the authoritative global one.
func RunWorker(cfg WorkerConfig) (*core.Result, error) {
	if cfg.Name == "" {
		cfg.Name = "worker-" + strconv.Itoa(os.Getpid())
	}
	if cfg.Check.CheckpointPath != "" {
		return nil, fmt.Errorf("dist: worker Check must not set CheckpointPath")
	}
	tcfg := cfg.Transport
	if tcfg.Chaos == nil {
		tcfg.Chaos = cfg.Check.Chaos
	}
	retryCounter := cfg.Check.Obs.Counter("cxlmc_rpc_retries_total", "transport calls retried after transient faults")
	userRetry := tcfg.OnRetry
	tcfg.OnRetry = func(path string, err error) {
		retryCounter.Inc()
		if userRetry != nil {
			userRetry(path, err)
		}
	}
	t := NewTransport(cfg.Coordinator, tcfg)

	cfgDigest, progDigest, err := core.ExplorationDigests(cfg.Check, cfg.Program)
	if err != nil {
		return nil, err
	}
	var jr joinResponse
	if err := t.Call("/v1/join", joinRequest{
		Worker:        cfg.Name,
		Seed:          cfg.Check.Seed,
		ConfigDigest:  cfgDigest,
		ProgramDigest: progDigest,
	}, &jr); err != nil {
		return nil, fmt.Errorf("dist: joining %s: %w", cfg.Coordinator, err)
	}
	rf := NewRemoteFrontier(t, cfg.Name, time.Duration(jr.LeaseTTLMs)*time.Millisecond)
	defer rf.Close()

	// check configures each lease's run. What spans the worker's lifetime is
	// held here instead: the status server and its registry, the budgets
	// (re-derived per lease below) and the local result.
	check := cfg.Check
	check.ContinueAfterBug = jr.ContinueAfterBug
	var leases atomic.Int64
	if check.MetricsAddr != "" {
		if check.Obs == nil {
			check.Obs = obs.NewRegistry()
		}
		reg := check.Obs
		srv, err := obs.NewServer(check.MetricsAddr, reg, func() any {
			snap := reg.Snapshot()
			return map[string]any{
				"role":       "worker",
				"name":       cfg.Name,
				"leases":     leases.Load(),
				"executions": snap["cxlmc_executions_total"],
				"steps":      snap["cxlmc_steps_total"],
			}
		})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		if check.OnStatusServer != nil {
			check.OnStatusServer(srv.Addr())
		}
		check.MetricsAddr, check.OnStatusServer = "", nil
	}

	start := time.Now()
	var local core.Tally
	degraded := false
	for {
		if cfg.Check.MaxExecutions > 0 {
			if check.MaxExecutions = cfg.Check.MaxExecutions - local.Executions; check.MaxExecutions <= 0 {
				break
			}
		}
		if cfg.Check.MaxTime > 0 {
			if check.MaxTime = cfg.Check.MaxTime - time.Since(start); check.MaxTime <= 0 {
				break
			}
		}
		l, err := rf.Lease(cfg.Check.Stop)
		if err != nil {
			return nil, err
		}
		if l == nil {
			break
		}
		leases.Add(1)
		check.Stop = l.yield
		cp, res, err := core.Continue(check, cfg.Program, core.NewCheckpoint(check.Seed, cfgDigest, progDigest,
			[][]byte{l.Snapshot}, core.Tally{}, core.Resilience{}, 0, false, false))
		if err != nil {
			// The lease is left to expire: whoever gets the unit next may fare
			// better, and nothing of it was reported.
			return nil, fmt.Errorf("dist: leased unit %d: %w", l.ID, err)
		}
		rep := core.UnitReport{Remainder: cp.Units}
		rep.Tally, _ = cp.Totals()
		rf.Complete(l, rep)
		local.Fold(rep.Tally)
		degraded = degraded || res.Degraded
		if !res.Complete && !fired(l.yield) {
			// The lease ended on this worker's own account — its budget, the
			// memory governor, the first bug — so another would end the same.
			break
		}
	}
	core.SortBugs(local.Bugs)
	stats := core.Stats{
		Counters:         local.Counters,
		Elapsed:          time.Since(start),
		Complete:         rf.done,
		Interrupted:      fired(cfg.Check.Stop),
		RPCRetries:       t.Retries(),
		StaleCompletions: rf.stales,
	}
	stats.Degraded = degraded
	return &core.Result{Stats: stats, Bugs: local.Bugs, Seed: check.Seed, GPF: check.GPF}, nil
}
