package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	// Check is the run's configuration, held once; its digests must match
	// the coordinator's or every turn is refused. CheckpointPath must be
	// empty (the coordinator owns durable state). MaxExecutions, MaxTime,
	// Stop and Obs span the worker's lifetime, not one lease; each lease is
	// a run of its own, so OnProgress sees one run's snapshots per lease.
	// Chaos also injects network faults into this worker's client, and Obs
	// also gets a cxlmc_rpc_retries_total counter.
	Check core.Config
	// Program is the program under test.
	Program func(*core.Program)
	// Coordinator is the coordinator's address ("host:port" or URL).
	Coordinator string
	// Name identifies this worker in leases and logs; defaults to
	// "worker-<pid>".
	Name string
}

// turnTimeout is what one attempt at a turn may take; a turn parks for half of it.
const turnTimeout = 2 * time.Second

// conversation is the worker's end of the coordinator's API, spoken through
// the retrying client. It belongs to the one goroutine that calls turn.
type conversation struct {
	c *obs.Client
	// id is what every request repeats: the worker's name and the seed and
	// digests of what it explores.
	id turnRequest
	// inc names this RunWorker in its request IDs, drawn at random: a worker
	// restarted under its predecessor's name counts its turns from 1 again and
	// must not be replayed the answers the predecessor got.
	inc     string
	run     string        // the coordinator start the last answer came from; "" before the first
	ttl     time.Duration // the lease TTL it announced
	reqSeq  int
	done    bool // the coordinator reported the exploration finished
	stales  int  // completions rejected as stale
	lastRep int  // client retries already reported upstream
}

// turn hands back the lease the worker holds (done; nil when it holds none)
// and, if want, waits for the next unit: the answer carries one unless the
// run is done or stopping, or ctx ended. The waiting happens at the
// coordinator — a request parks there for up to half an attempt's timeout, and
// an empty answer means ask again now. done carries the client's retries
// accrued since the last report, so the coordinator's sum stays exact. A call
// that fails is the client's to make again, the same request under the same
// ID: the coordinator applies it once however often it arrives, and one
// restarted meanwhile answers the old lease stale and grants a unit of its own
// — there is nothing to rejoin. How long is the context's to say. It ends with
// ctx, which is the worker's Stop — except that a lease in hand is handed back
// by a stopping worker too — and when a call has failed for several lease TTLs
// on end, or for two seconds if no coordinator ever answered: the leases
// involved are long reclaimed, and the process never hangs on a dead address.
func (cv *conversation) turn(ctx context.Context, done *turnDone, want bool) (resp turnResponse, err error) {
	req := cv.id
	req.Done, req.Want, req.ParkMs = done, want, (turnTimeout / 2).Milliseconds()
	stop := ctx
	if done != nil {
		cur := cv.c.Retries()
		done.Report.RPCRetries, cv.lastRep = cur-cv.lastRep, cur
		ctx = context.WithoutCancel(ctx)
	}
	for {
		cv.reqSeq++
		req.ReqID = cv.id.Worker + "-" + cv.inc + "-turn-" + strconv.Itoa(cv.reqSeq)
		resp = turnResponse{}
		call, cancel := context.WithTimeout(ctx, max(4*cv.ttl, 2*time.Second))
		err = cv.c.Call(call, http.MethodPost, "/v3/turn", req, &resp)
		cancel()
		if err != nil {
			return resp, err
		}
		cv.run, cv.ttl, cv.done = resp.Run, time.Duration(resp.LeaseTTLMs)*time.Millisecond, resp.Done
		if resp.Stale {
			cv.stales++
		}
		if resp.Unit != nil || resp.Done || resp.Stop || !want {
			return resp, nil
		}
		// The park ran out. The completion is in: only the asking is repeated
		// (by a worker that has been stopped, not even that: the call fails).
		req.Done, ctx = nil, stop
	}
}

// nextBudget is the execution budget of a worker's next lease, given the last
// one: doubled when the lease spent its budget and was quick, halved when it
// took more than a third of the TTL — so a lease is never extended and a live
// worker's completion stays well inside the deadline. Quick is a sixth of the
// TTL; with a peer parked at the coordinator for want of a unit, who waits out
// a lease like this one, it is a 256th (20ms of the default 5s: below that a
// lease costs what the waiting does), so a worker with nothing to explore
// waits for one short lease, not one grown to the TTL.
func nextBudget(budget int, took, ttl time.Duration, spent bool, waiting int) int {
	quick := ttl / 6
	if waiting > 0 {
		quick = ttl / 256
	}
	switch {
	case spent && took < quick:
		return budget * 2
	case took > ttl/3 && budget > 1:
		return budget / 2
	}
	return budget
}

// RunWorker works for the coordinator until there is nothing left to lease or
// its own budget runs out: take a unit, resume it as an ordinary run from a
// one-unit checkpoint (core.Continue) under an execution budget, and in one
// call report the final checkpoint's totals, return its units as the remainder
// and take the next. The budget is the worker's own: one execution for its
// first lease — so a fresh tree comes back, split for everyone waiting, at
// once — and from then on what nextBudget makes of the last lease. It returns
// this worker's local view — the sum of what it reported; the coordinator's
// Wait result is the authoritative global one.
func RunWorker(cfg WorkerConfig) (*core.Result, error) {
	if cfg.Name == "" {
		cfg.Name = "worker-" + strconv.Itoa(os.Getpid())
	}
	if cfg.Check.CheckpointPath != "" {
		return nil, fmt.Errorf("dist: worker Check must not set CheckpointPath")
	}
	cfgDigest, progDigest, err := core.ExplorationDigests(cfg.Check, cfg.Program)
	if err != nil {
		return nil, err
	}
	var inc [4]byte
	if _, err := rand.Read(inc[:]); err != nil {
		return nil, fmt.Errorf("dist: drawing the worker's incarnation: %w", err)
	}
	cv := &conversation{
		c: obs.NewClient(cfg.Coordinator, turnTimeout, cfg.Check.Chaos,
			cfg.Check.Obs.Counter("cxlmc_rpc_retries_total", "transport calls retried after transient faults")),
		id:  turnRequest{Worker: cfg.Name, Seed: cfg.Check.Seed, ConfigDigest: cfgDigest, ProgramDigest: progDigest},
		inc: hex.EncodeToString(inc[:]),
	}
	// ctx is Stop as a context: a turn parked or retrying when it fires ends there.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-cfg.Check.Stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	// check configures each lease's run. What spans the worker's lifetime is
	// held here instead: the budgets (re-derived per lease below) and the
	// local result.
	check := cfg.Check
	start := time.Now()
	var local core.Tally
	var done *turnDone // the lease held, handed back by the next turn
	var took time.Duration
	spent, last := false, false
	for budget := 1; ; {
		resp, err := cv.turn(ctx, done, !last)
		if obs.IsRejected(err) || err != nil && cv.run == "" {
			return nil, fmt.Errorf("dist: %s: %w", cfg.Coordinator, err)
		}
		l := resp.Unit
		if l == nil {
			break // done, stopping, leaving, or an outage outlasted
		}
		if done != nil {
			budget = nextBudget(budget, took, cv.ttl, spent, resp.Waiting)
		}
		check.ContinueAfterBug = resp.ContinueAfterBug
		check.MaxExecutions = budget
		if left := cfg.Check.MaxExecutions - local.Executions; cfg.Check.MaxExecutions > 0 && left < budget {
			check.MaxExecutions = left
		}
		if cfg.Check.MaxTime > 0 {
			// A unit that arrives as the time runs out stops at its first
			// boundary and goes back whole.
			if check.MaxTime = cfg.Check.MaxTime - time.Since(start); check.MaxTime <= 0 {
				check.MaxTime = 1
			}
		}
		leased := time.Now()
		cp, res, err := core.Continue(check, cfg.Program, core.NewCheckpoint(check.Seed, cfgDigest, progDigest,
			[][]byte{l.Snapshot}, core.Tally{}, core.Resilience{}, 0, false, false))
		if err != nil {
			// The lease is left to expire: whoever gets the unit next may fare
			// better, and nothing of it was reported.
			return nil, fmt.Errorf("dist: leased unit %d: %w", l.ID, err)
		}
		took = time.Since(leased)
		done = &turnDone{Run: resp.Run, Unit: l.ID, Epoch: l.Epoch, Report: core.UnitReport{Remainder: cp.Units}}
		done.Report.Tally, _ = cp.Totals()
		local.Fold(done.Report.Tally)
		spent = done.Report.Executions >= check.MaxExecutions
		// The lease ended short of its budget on this worker's own account —
		// Stop, its time budget, the first bug — so another would end the
		// same; or its own execution budget is used up: the next turn hands
		// the lease back and asks for nothing.
		last = !res.Complete && !spent ||
			cfg.Check.MaxExecutions > 0 && local.Executions >= cfg.Check.MaxExecutions
	}
	core.SortBugs(local.Bugs)
	stats := core.Stats{
		Counters:         local.Counters,
		Elapsed:          time.Since(start),
		Complete:         cv.done,
		Interrupted:      ctx.Err() != nil,
		RPCRetries:       cv.c.Retries(),
		StaleCompletions: cv.stales,
	}
	return &core.Result{Stats: stats, Bugs: local.Bugs, Seed: check.Seed, GPF: check.GPF}, nil
}
