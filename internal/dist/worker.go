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
// through the retrying transport: Lease fetches a unit, Complete hands it
// back. It belongs to the one goroutine that calls them.
type RemoteFrontier struct {
	t    *Transport
	name string
	ttl  time.Duration

	reqSeq  int
	done    bool // the coordinator reported the exploration finished
	stales  int  // completions rejected for a stale epoch
	lastRep int  // transport retries already reported upstream
}

// NewRemoteFrontier returns a client for the coordinator behind t. ttl is
// the lease TTL the coordinator granted at join.
func NewRemoteFrontier(t *Transport, name string, ttl time.Duration) *RemoteFrontier {
	return &RemoteFrontier{t: t, name: name, ttl: ttl}
}

func (rf *RemoteFrontier) reqID(kind string) string {
	rf.reqSeq++
	return rf.name + "-" + kind + "-" + strconv.Itoa(rf.reqSeq)
}

// Lease asks the coordinator for a unit until one is granted, or there is
// nothing to wait for (nil): the run is done or stopping, or stop fired. The
// waiting happens at the coordinator — a request parks there for up to half a
// transport timeout, and an empty answer means ask again now. Transport
// errors degrade to capped-backoff retrying — an idle worker has nothing
// better to do than wait for the coordinator to come back (a restarted
// coordinator on the same address is rejoined transparently) — but an outage
// outlasting several lease TTLs makes the worker give up and finish with its
// local results: its leases have long been reclaimed, so nothing is lost, and
// the process never hangs on a dead address.
func (rf *RemoteFrontier) Lease(stop <-chan struct{}) (*core.LeasedUnit, error) {
	backoff := 25 * time.Millisecond
	giveUp := 4 * rf.ttl
	if giveUp < 2*time.Second {
		giveUp = 2 * time.Second
	}
	var failSince time.Time
	for !fired(stop) {
		var resp leaseResponse
		err := rf.t.Call("/v2/lease", leaseRequest{
			Worker: rf.name, ReqID: rf.reqID("lease"), ParkMs: (rf.t.timeout / 2).Milliseconds(),
		}, &resp)
		switch {
		case IsRejected(err):
			return nil, fmt.Errorf("dist: lease rejected: %w", err)
		case err != nil:
			if failSince.IsZero() {
				failSince = time.Now()
			} else if time.Since(failSince) > giveUp {
				return nil, nil
			}
			t := time.NewTimer(backoff)
			select {
			case <-stop:
			case <-t.C:
			}
			t.Stop()
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		case resp.Stop || resp.Done:
			rf.done = resp.Done
			return nil, nil
		case resp.Unit != nil:
			return &core.LeasedUnit{ID: resp.Unit.ID, Epoch: resp.Unit.Epoch, Snapshot: resp.Unit.Snapshot}, nil
		default:
			backoff, failSince = 25*time.Millisecond, time.Time{}
		}
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
// workers), and reports whether the coordinator said the run is over (done or
// stopping): there is nothing further to lease. again tells the coordinator
// this worker means to lease again unless so told. A stale rejection is counted,
// not an error. A transport failure after retries is survivable — the lease
// expires and the unit is re-issued — so it is swallowed too.
func (rf *RemoteFrontier) Complete(l *core.LeasedUnit, rep core.UnitReport, again bool) (over bool) {
	cur := rf.t.Retries()
	rep.RPCRetries, rf.lastRep = cur-rf.lastRep, cur
	var resp completeResponse
	err := rf.t.Call("/v2/complete", completeRequest{
		Worker: rf.name,
		ReqID:  rf.reqID("complete"),
		UnitID: l.ID,
		Epoch:  l.Epoch,
		Report: rep,
		Again:  again,
	}, &resp)
	if err != nil {
		return false
	}
	if resp.Stale {
		rf.stales++
	}
	rf.done = resp.Done
	return resp.Done || resp.Stop
}

// RunWorker joins the coordinator and works for it until there is nothing
// left to lease or its own budget runs out: lease a unit, resume it as an
// ordinary run from a one-unit checkpoint (core.Continue) under an execution
// budget, report the final checkpoint's totals and return its units as the
// remainder, lease again. The budget is the worker's own: one execution for
// its first lease — so a fresh tree comes back, split for everyone waiting,
// at once — doubled while a lease that spent it completes inside a sixth of
// the TTL, halved when one takes more than a third; a lease is never extended
// and a live worker's completion stays well inside the deadline. It returns
// this worker's local view — the sum of what it reported; the coordinator's
// Wait result is the authoritative global one.
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
	if err := t.Call("/v2/join", joinRequest{
		Worker:        cfg.Name,
		Seed:          cfg.Check.Seed,
		ConfigDigest:  cfgDigest,
		ProgramDigest: progDigest,
	}, &jr); err != nil {
		return nil, fmt.Errorf("dist: joining %s: %w", cfg.Coordinator, err)
	}
	rf := NewRemoteFrontier(t, cfg.Name, time.Duration(jr.LeaseTTLMs)*time.Millisecond)
	rf.done = jr.Done

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
	for budget := 1; !jr.Done && !jr.Stop; {
		check.MaxExecutions = budget
		if left := cfg.Check.MaxExecutions - local.Executions; cfg.Check.MaxExecutions > 0 && left < budget {
			check.MaxExecutions = left
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
		leased := time.Now()
		cp, res, err := core.Continue(check, cfg.Program, core.NewCheckpoint(check.Seed, cfgDigest, progDigest,
			[][]byte{l.Snapshot}, core.Tally{}, core.Resilience{}, 0, false, false))
		if err != nil {
			// The lease is left to expire: whoever gets the unit next may fare
			// better, and nothing of it was reported.
			return nil, fmt.Errorf("dist: leased unit %d: %w", l.ID, err)
		}
		rep := core.UnitReport{Remainder: cp.Units}
		rep.Tally, _ = cp.Totals()
		local.Fold(rep.Tally)
		degraded = degraded || res.Degraded
		spent := rep.Executions >= check.MaxExecutions
		// The lease ended short of its budget on this worker's own account —
		// Stop, its time budget, the memory governor, the first bug — so
		// another would end the same; or its own execution budget is used up.
		last := !res.Complete && !spent ||
			cfg.Check.MaxExecutions > 0 && local.Executions >= cfg.Check.MaxExecutions
		if over := rf.Complete(l, rep, !last); over || last {
			break
		}
		switch took := time.Since(leased); {
		case spent && took < rf.ttl/6:
			budget *= 2
		case took > rf.ttl/3 && budget > 1:
			budget /= 2
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
