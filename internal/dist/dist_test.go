package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/obs"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
	"repro/internal/recipe/pbwtree"
)

// The distributed-exploration suite: end-to-end parity over real HTTP,
// crashed-worker lease reclamation, coordinator crash + checkpoint
// resume, wire-level idempotency, and a network-chaos sweep proving no
// work unit is ever lost or double-counted.

// fixture builds a deterministic buggy program whose state space grows
// with keys: the writer leaves every odd slot unflushed, so each odd
// slot is a distinct crash-consistency bug.
func fixture(keys int) func(*core.Program) {
	return func(p *core.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		slots := make([]core.Addr, keys)
		for i := range slots {
			slots[i] = p.AllocAligned(8, 64)
		}
		flag := p.AllocAligned(8, 64)
		a.Thread("writer", func(t *core.Thread) {
			for i, s := range slots {
				t.Store64(s, uint64(i)+1)
				if i%2 == 0 {
					t.CLFlush(s)
				}
				t.SFence()
			}
			t.Store64(flag, 1)
			t.CLFlush(flag)
			t.SFence()
		})
		b.Thread("check", func(t *core.Thread) {
			t.Join(a)
			if t.Load64(flag) == 1 {
				for i, s := range slots {
					t.Assert(t.Load64(s) == uint64(i)+1, fmt.Sprintf("slot %d lost after failure", i))
				}
			}
		})
	}
}

// ccehProgram is the paper's Table 5 CCEH benchmark with the missing-
// flush bug seeded — the same workload the acceptance smoke runs, and
// large enough (hundreds of executions) to exercise splits and mid-run
// checkpoints.
func ccehProgram(keys int) func(*core.Program) {
	return recipe.Program(cceh.Benchmark, recipe.Config{Keys: keys, Bugs: recipe.Bug(1)})
}

func distinctBugs(bugs []core.Bug) []string {
	seen := map[string]bool{}
	var out []string
	for _, b := range bugs {
		k := b.Kind.String() + ": " + b.Message
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertParity fails unless res matches the single-process baseline in
// executions, decision points and distinct bug set.
func assertParity(t *testing.T, label string, res, base *core.Result) {
	t.Helper()
	if !res.Complete {
		t.Fatalf("%s: run incomplete", label)
	}
	if res.Executions != base.Executions ||
		res.FailurePoints != base.FailurePoints ||
		res.ReadFromPoints != base.ReadFromPoints {
		t.Fatalf("%s: stats (execs %d, fp %d, rfp %d) != baseline (execs %d, fp %d, rfp %d)",
			label, res.Executions, res.FailurePoints, res.ReadFromPoints,
			base.Executions, base.FailurePoints, base.ReadFromPoints)
	}
	if got, want := distinctBugs(res.Bugs), distinctBugs(base.Bugs); !equal(got, want) {
		t.Fatalf("%s: bug set %v != baseline %v", label, got, want)
	}
}

// tap stands between workers and the coordinator at addr. sent (when
// non-nil) is shown every turn as it sets out, see every turn with its answer
// before the worker is. It returns the address the workers should be given.
func tap(t *testing.T, addr string, sent func(turnRequest), see func(turnRequest, turnResponse)) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		var req turnRequest
		json.Unmarshal(raw, &req)
		if sent != nil {
			sent(req)
		}
		res, err := http.Post("http://"+addr+r.URL.Path, "application/json", bytes.NewReader(raw))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer res.Body.Close()
		raw, _ = io.ReadAll(res.Body)
		var resp turnResponse
		if json.Unmarshal(raw, &resp) == nil {
			see(req, resp)
		}
		w.WriteHeader(res.StatusCode)
		w.Write(raw)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// talker is a hand-driven worker of c: each call of the returned func is one
// delivery of one turn, under the request ID given.
func talker(t testing.TB, c *Coordinator, name string) func(reqID string, done *turnDone, want bool) (turnResponse, error) {
	return func(reqID string, done *turnDone, want bool) (resp turnResponse, err error) {
		t.Helper()
		err = deliver(c.Addr(), turnRequest{
			Worker: name, ReqID: reqID, Seed: c.cfg.Check.Seed, ConfigDigest: c.cfgDigest, ProgramDigest: c.progDigest,
			Done: done, Want: want,
		}, &resp)
		return resp, err
	}
}

// deliver sends one turn to the coordinator at addr, through the client a
// worker uses.
func deliver(addr string, req turnRequest, resp any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return obs.NewClient(addr, turnTimeout, nil, nil).Call(ctx, http.MethodPost, "/v3/turn", req, resp)
}

// handBack completes the lease resp granted, with rep.
func handBack(resp turnResponse, rep core.UnitReport) *turnDone {
	return &turnDone{Run: resp.Run, Unit: resp.Unit.ID, Epoch: resp.Unit.Epoch, Report: rep}
}

// frontierState is everything a refused or stale request must leave alone.
type frontierState struct {
	counters             core.Counters
	bugs                 int
	queued, leased       int
	unitsAdded, unitDone int
}

func readFrontier(c *Coordinator) (s frontierState) {
	t, q, l := c.f.Progress()
	s.counters, s.bugs, s.queued, s.leased = t.Counters, len(t.Bugs), q, l
	s.unitsAdded, s.unitDone = c.f.UnitCounts()
	return s
}

// TestDistEndToEndParity: a coordinator and two worker processes (in
// miniature: two RunWorker calls over real HTTP) explore exactly the
// executions a single-process run does, find the same distinct bugs,
// and every repro token the distributed run mints replays to a bug.
func TestDistEndToEndParity(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Buggy() {
		t.Fatal("fixture found no bugs")
	}

	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{
				Check: check, Program: prog,
				Coordinator: c.Addr(), Name: fmt.Sprintf("w%d", i),
			}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	res, err := c.Wait(nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "distributed", res, base)

	for _, b := range res.Bugs {
		if b.ReproToken == "" {
			t.Fatalf("bug %q has no repro token", b.Message)
		}
		rr, err := core.Replay(b.ReproToken, core.Config{}, prog)
		if err != nil {
			t.Fatalf("replaying %q: %v", b.Message, err)
		}
		if !rr.Buggy() {
			t.Fatalf("token of %q replays to no bug", b.Message)
		}
	}
}

// TestDistDigestMismatchRejected: a worker offering a different program
// is turned away with a permanent rejection, not retried into the frontier —
// on its first turn, and as much on a later one, with a lease in hand.
func TestDistDigestMismatchRejected(t *testing.T) {
	c, err := StartCoordinator(CoordinatorConfig{
		Check: core.Config{}, Program: fixture(4), Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stop := make(chan struct{})
		close(stop)
		c.Wait(stop)
	}()
	_, err = RunWorker(WorkerConfig{
		Check: core.Config{}, Program: fixture(8),
		Coordinator: c.Addr(), Name: "impostor",
	})
	if err == nil {
		t.Fatal("a worker with a mismatched program digest was served")
	}

	turn := talker(t, c, "turncoat")
	lr, err := turn("turncoat-1", nil, true)
	if err != nil || lr.Unit == nil {
		t.Fatalf("first turn: %v, unit %v", err, lr.Unit)
	}
	before := readFrontier(c)
	err = deliver(c.Addr(), turnRequest{
		Worker: "turncoat", ReqID: "turncoat-2", Seed: c.cfg.Check.Seed, ConfigDigest: c.cfgDigest, ProgramDigest: "0123456789abcdef",
		Done: handBack(lr, core.UnitReport{Tally: core.Tally{Counters: core.Counters{Executions: 3}}}), Want: true,
	}, nil)
	if !obs.IsRejected(err) || !strings.Contains(err.Error(), "409") {
		t.Fatalf("a later turn under another program digest was answered %v, want a 409", err)
	}
	if after := readFrontier(c); after != before {
		t.Fatalf("the refused turn moved the frontier: %+v -> %+v", before, after)
	}
	// Handed back, so the stop above has no lease to wait out.
	if _, err := turn("turncoat-3", handBack(lr, core.UnitReport{Remainder: [][]byte{lr.Unit.Snapshot}}), false); err != nil {
		t.Fatal(err)
	}
}

// TestTurnWithoutIdentityRefused: every turn says what its worker explores. A
// request for a unit that leaves the seed or a digest out, or gets one wrong,
// is a 409 and is granted nothing.
func TestTurnWithoutIdentityRefused(t *testing.T) {
	c, err := StartCoordinator(CoordinatorConfig{
		Check: core.Config{Seed: 3}, Program: fixture(4), Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stop := make(chan struct{})
		close(stop)
		c.Wait(stop)
	}()
	for name, req := range map[string]turnRequest{
		"no identity":    {},
		"no digests":     {Seed: 3},
		"config digest":  {Seed: 3, ConfigDigest: "0123456789abcdef", ProgramDigest: c.progDigest},
		"program digest": {Seed: 3, ConfigDigest: c.cfgDigest, ProgramDigest: "0123456789abcdef"},
		"seed":           {Seed: 0, ConfigDigest: c.cfgDigest, ProgramDigest: c.progDigest},
	} {
		req.Worker, req.ReqID, req.Want = "stranger", "stranger-"+name, true
		var resp turnResponse
		err := deliver(c.Addr(), req, &resp)
		if !obs.IsRejected(err) || !strings.Contains(err.Error(), "409") || resp.Unit != nil {
			t.Errorf("%s: answered %v with unit %v, want a 409 and none", name, err, resp.Unit)
		}
	}
	if _, _, leased := c.f.Progress(); leased != 0 || c.Registry().Snapshot()["cxlmc_lease_grants_total"] != 0 {
		t.Fatalf("a stranger was granted a lease: %d out", leased)
	}
}

// TestDistAbandonedLeaseReclaim is the lost-worker story end to end. A worker
// leases the only unit and then goes slow: its one-execution lease outlasts
// the TTL. The coordinator reclaims the lease and a healthy worker, parked
// until then, takes the unit over. The victim's completion — and a replay of
// it under a fresh request ID — is rejected as stale, and all the victim lost
// to the reclaim is that one lease's budget: it reports its single execution
// and the unexplored rest instead of having run the tree to the end on a
// lease nobody would accept. The global result still matches the
// single-process baseline exactly — LeaseReclaims and StaleCompletions record
// the recovery.
func TestDistAbandonedLeaseReclaim(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(32)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}

	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
		LeaseTTL: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The victim's view of the wire: its first lease, and the turn that hands
	// it back with the coordinator's answer.
	var (
		mu        sync.Mutex
		first     *core.LeasedUnit
		abandoned *turnRequest
		answer    turnResponse
	)
	viaTap := tap(t, c.Addr(), nil, func(req turnRequest, resp turnResponse) {
		mu.Lock()
		defer mu.Unlock()
		if d := req.Done; abandoned == nil && first != nil && d != nil && d.Unit == first.ID && d.Epoch == first.Epoch {
			abandoned, answer = &req, resp
		}
		if first == nil {
			first = resp.Unit
		}
	})
	// One engine worker, stalled 200ms at each of its first boundaries: twice
	// the TTL before its first execution has even begun.
	victim := check
	victim.Workers = 1
	victim.Chaos = chaos.New(chaos.Config{StallPct: 100, StallDur: 200 * time.Millisecond, MaxFaults: 4})
	type outcome struct {
		res *core.Result
		err error
	}
	victimDone, healthyDone := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		res, err := RunWorker(WorkerConfig{Check: victim, Program: prog, Coordinator: viaTap, Name: "victim"})
		victimDone <- outcome{res, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal(what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor("the victim never leased the tree", func() bool { mu.Lock(); defer mu.Unlock(); return first != nil })
	// A healthy worker arrives; it can only make progress once the victim's
	// lease is reclaimed and re-issued. (One engine worker at 5ms a boundary:
	// it cannot finish the run before the victim has been heard from again.)
	healthy := check
	healthy.Workers = 1
	healthy.Chaos = chaos.New(chaos.Config{StallPct: 100, StallDur: 5 * time.Millisecond})
	go func() {
		res, err := RunWorker(WorkerConfig{Check: healthy, Program: prog, Coordinator: c.Addr(), Name: "healthy"})
		healthyDone <- outcome{res, err}
	}()
	waitFor("the slow worker's lease was never reclaimed", func() bool { return c.f.Stats().Reclaims > 0 })
	waitFor("the victim never completed its first lease", func() bool { mu.Lock(); defer mu.Unlock(); return abandoned != nil })
	mu.Lock()
	if !answer.Stale {
		t.Fatal("the victim's completion of its reclaimed lease was accepted")
	}
	if rep := abandoned.Done.Report; rep.Executions > 1 || len(rep.Remainder) == 0 {
		t.Fatalf("the reclaimed lease cost the victim %d executions and it returned %d units; want its budget of 1 and the unexplored rest",
			rep.Executions, len(rep.Remainder))
	}
	// The same completion arrives once more, as a new request: still rejected.
	again := abandoned.Done
	mu.Unlock()
	if cr, err := talker(t, c, "victim")("victim-turn-again", again, false); err != nil || !cr.Stale {
		t.Fatalf("replayed stale completion: err %v, stale %v; want a stale rejection", err, cr.Stale)
	}

	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	v, h := <-victimDone, <-healthyDone
	if v.err != nil || h.err != nil {
		t.Fatalf("workers: victim %v, healthy %v", v.err, h.err)
	}
	assertParity(t, "post-reclaim", res, base)
	if res.LeaseReclaims < 1 || res.StaleCompletions < 2 {
		t.Fatalf("LeaseReclaims = %d, StaleCompletions = %d, want >= 1 and >= 2", res.LeaseReclaims, res.StaleCompletions)
	}
	if v.res.StaleCompletions < 1 {
		t.Fatal("the victim's own stats do not record its stale completion")
	}
}

// TestDistBadRemainderRejected: a completion whose remainder does not decode
// is refused whole — 400, nothing requeued, nothing tallied, the lease still
// out — instead of parking a unit in the frontier that fails whichever worker
// leases it next. The holder's proper completion then goes through and the
// run finishes to the serial totals.
func TestDistBadRemainderRejected(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(8)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartCoordinator(CoordinatorConfig{Check: check, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	turn := talker(t, c, "mangler")
	lr, err := turn("mangler-turn-1", nil, true)
	if err != nil || lr.Unit == nil {
		t.Fatalf("lease: %v, unit %v", err, lr.Unit)
	}
	flipped := append([]byte(nil), lr.Unit.Snapshot...)
	flipped[0] ^= 0x01
	complete := func(reqID string, remainder ...[]byte) error {
		_, err := turn(reqID, handBack(lr, core.UnitReport{Tally: core.Tally{Counters: core.Counters{Executions: 5}}, Remainder: remainder}), false)
		return err
	}
	if err := complete("mangler-turn-2", lr.Unit.Snapshot, flipped); !obs.IsRejected(err) {
		t.Fatalf("a bit-flipped remainder was answered %v, want a 4xx rejection", err)
	}
	added, done := c.f.UnitCounts()
	tally, queued, leased := c.f.Progress()
	if added != 1 || done != 0 || tally.Executions != 0 || queued != 0 || leased != 1 {
		t.Fatalf("after the rejected completion: %d added, %d done, %d executions, %d queued, %d leased; want 1 0 0 0 1",
			added, done, tally.Executions, queued, leased)
	}
	if err := complete("mangler-turn-3", lr.Unit.Snapshot); err != nil {
		t.Fatal(err)
	}
	go RunWorker(WorkerConfig{Check: check, Program: prog, Coordinator: c.Addr(), Name: "finisher"})
	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	base.Executions += 5 // the mangler's claimed five, taken at its word
	assertParity(t, "after a rejected remainder", res, base)
}

// budgetTap is a tap for any number of workers that checks every completion
// against what its worker may have chosen: a budget starts at one execution
// and at most doubles from one lease to the next, so a worker's k-th report
// (from zero) never holds more than 1<<k executions, and no counter in it is
// negative. It returns the address to join and a func listing the violations.
func budgetTap(t *testing.T, addr string) (string, func() []string) {
	var mu sync.Mutex
	var bad []string
	reports := map[string]int{}
	via := tap(t, addr, nil, func(req turnRequest, _ turnResponse) {
		if req.Done == nil {
			return
		}
		rep := req.Done.Report
		mu.Lock()
		defer mu.Unlock()
		k := reports[req.Worker]
		reports[req.Worker]++
		if k < 30 && rep.Executions > 1<<k {
			bad = append(bad, fmt.Sprintf("%s: %d executions on the worker's lease %d, budget at most %d", req.ReqID, rep.Executions, k, 1<<k))
		}
		counters := reflect.ValueOf(rep.Counters)
		for i := 0; i < counters.NumField(); i++ {
			if counters.Field(i).Int() < 0 {
				bad = append(bad, fmt.Sprintf("%s: %s = %d", req.ReqID, counters.Type().Field(i).Name, counters.Field(i).Int()))
			}
		}
	})
	return via, func() []string { mu.Lock(); defer mu.Unlock(); return bad }
}

// twoWorkers starts a default-TTL coordinator for prog, runs two workers
// against it through a budgetTap and returns the coordinator, its result,
// each worker's local result and how long after the last worker returned
// Wait did.
func twoWorkers(t *testing.T, check core.Config, prog func(*core.Program)) (*Coordinator, *core.Result, []*core.Result, time.Duration) {
	t.Helper()
	c, err := StartCoordinator(CoordinatorConfig{Check: check, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	via, violations := budgetTap(t, c.Addr())
	var wg sync.WaitGroup
	locals := make([]*core.Result, 2)
	returned := make([]time.Time, 2)
	for i := range locals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if locals[i], err = RunWorker(WorkerConfig{
				Check: check, Program: prog, Coordinator: via, Name: fmt.Sprintf("w%d", i),
			}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			returned[i] = time.Now()
		}(i)
	}
	res, err := c.Wait(nil)
	waited := time.Now()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if bad := violations(); len(bad) > 0 {
		t.Fatalf("dishonest reports: %v", bad)
	}
	if added, done := c.f.UnitCounts(); added != done {
		t.Fatalf("%d units added but %d completed — work lost or duplicated", added, done)
	}
	last := returned[0]
	if returned[1].After(last) {
		last = returned[1]
	}
	return c, res, locals, waited.Sub(last)
}

// TestWorkerYieldsOnDemand: donation is completing at the budget. With two
// workers and one unit, the second parks, the first completes its
// one-execution lease and returns what is left, and the coordinator splits
// that for both — at every completion that finds someone waiting, with no
// timer involved. Units come back (cxlmc_units_donated_total), none is lost,
// no report carries a negative counter or more than its budget, and totals
// and bugs equal the serial run's, every token replaying.
func TestWorkerYieldsOnDemand(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(48)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	c, res, _, _ := twoWorkers(t, check, prog)
	assertParity(t, "yielding", res, base)
	if res.Steps != base.Steps {
		t.Fatalf("steps %d != serial run's %d", res.Steps, base.Steps)
	}
	if donated := c.Registry().Snapshot()["cxlmc_units_donated_total"]; donated == 0 {
		t.Fatal("no worker ever returned a remainder: nothing was donated")
	}
	for _, b := range res.Bugs {
		if rr, err := core.Replay(b.ReproToken, core.Config{}, prog); err != nil || !rr.Buggy() {
			t.Fatalf("token of %q does not replay to a bug: %v", b.Message, err)
		}
	}
}

// table5BwTree is the Table 5 P-BwTree program as the benchmark's dist_2w
// workload runs it: 246 executions, 152 601 steps, some 30 ms serially.
func table5BwTree() (core.Config, func(*core.Program)) {
	return core.Config{Workers: 1}, recipe.Program(pbwtree.Benchmark, recipe.Config{Keys: 10, Workers: 1})
}

// TestShortRunIsShared: a run far shorter than any lease TTL is still
// explored by both workers. The first lease of the fresh tree is one
// execution, its remainder comes back split, and from then on every
// completion feeds whoever is parked — so both workers execute, units are
// donated, none is lost, and the totals are the serial run's to the step.
func TestShortRunIsShared(t *testing.T) {
	check, prog := table5BwTree()
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	c, res, locals, _ := twoWorkers(t, check, prog)
	assertParity(t, "shared", res, base)
	if res.Steps != base.Steps {
		t.Fatalf("steps %d != serial run's %d", res.Steps, base.Steps)
	}
	for i, l := range locals {
		if l.Executions == 0 {
			t.Errorf("worker %d explored nothing: the run was not shared (%d, %d of %d executions)",
				i, locals[0].Executions, locals[1].Executions, res.Executions)
		}
	}
	if locals[0].Executions+locals[1].Executions != res.Executions {
		t.Errorf("the workers report %d + %d executions, the coordinator %d", locals[0].Executions, locals[1].Executions, res.Executions)
	}
	if donated := c.Registry().Snapshot()["cxlmc_units_donated_total"]; donated == 0 {
		t.Error("cxlmc_units_donated_total = 0")
	}
}

// TestNobodyLingers: everyone hears the outcome in an answer to a call they
// had already made — the parked worker in its lease, the last completer in
// its completion — so both report the run complete without a retry, and the
// coordinator is gone as soon as they are.
func TestNobodyLingers(t *testing.T) {
	check, prog := table5BwTree()
	_, res, locals, lag := twoWorkers(t, check, prog)
	if !res.Complete {
		t.Fatal("run incomplete")
	}
	for i, l := range locals {
		if !l.Complete || l.RPCRetries != 0 {
			t.Errorf("worker %d: complete=%v after %d rpc retries; want true and 0", i, l.Complete, l.RPCRetries)
		}
	}
	if lag > 100*time.Millisecond {
		t.Errorf("Wait returned %v after the last worker had", lag)
	}
}

// TestLeaseParks: a request for a unit waits where the work is. With the only
// unit out, an idle worker's turn parks at the coordinator for half its
// transport timeout — a call a second, not forty — and the completion that
// returns the unit answers the turn parked at that moment: no further ask
// is needed.
func TestLeaseParks(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(8)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartCoordinator(CoordinatorConfig{Check: check, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	holder := talker(t, c, "holder")
	lr, err := holder("holder-turn-1", nil, true)
	if err != nil || lr.Unit == nil {
		t.Fatalf("lease: %v, unit %v", err, lr.Unit)
	}

	var mu sync.Mutex
	var asks []time.Time // when each of the idle worker's requests for a unit set out
	var grantedAt time.Time
	grantedAsk := 0 // how many it had made when one was granted
	secondAsk := make(chan struct{})
	via := tap(t, c.Addr(),
		func(req turnRequest) {
			if req.Want {
				mu.Lock()
				if asks = append(asks, time.Now()); len(asks) == 2 {
					close(secondAsk)
				}
				mu.Unlock()
			}
		},
		func(_ turnRequest, resp turnResponse) {
			if resp.Unit != nil {
				mu.Lock()
				if grantedAt.IsZero() {
					grantedAt, grantedAsk = time.Now(), len(asks)
				}
				mu.Unlock()
			}
		})
	go RunWorker(WorkerConfig{Check: check, Program: prog, Coordinator: via, Name: "idle"})

	select {
	case <-secondAsk:
	case <-time.After(10 * time.Second):
		t.Fatal("the idle worker never asked twice")
	}
	// The second request has just parked, with its whole park ahead of it:
	// hand the unit back now.
	completed := time.Now()
	if _, err := holder("holder-turn-2", handBack(lr, core.UnitReport{Remainder: [][]byte{lr.Unit.Snapshot}}), false); err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "after parking", res, base)
	mu.Lock()
	defer mu.Unlock()
	if parked := asks[1].Sub(asks[0]); parked < 900*time.Millisecond {
		t.Fatalf("the first request came back empty after %v; want it parked for half the 2s transport timeout", parked)
	}
	if grantedAsk != 2 || grantedAt.Sub(completed) > 100*time.Millisecond {
		t.Fatalf("granted on ask %d, %v after the completion; want the parked ask 2 answered at once", grantedAsk, grantedAt.Sub(completed))
	}
}

// TestCoordinatorStatusSurface: the coordinator's address is a cxlmc status
// server like any other — /metrics, /statusz and pprof answer next to the
// worker API.
func TestCoordinatorStatusSurface(t *testing.T) {
	c, err := StartCoordinator(CoordinatorConfig{Check: core.Config{}, Program: fixture(2), Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		stop := make(chan struct{})
		close(stop)
		c.Wait(stop)
	}()
	for path, want := range map[string]string{
		"/metrics":      "cxlmc_lease_active",
		"/statusz":      `"coordinator"`,
		"/debug/pprof/": "goroutine",
	} {
		res, err := http.Get("http://" + c.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: %d, body lacks %q:\n%.300s", path, res.StatusCode, want, body)
		}
	}
}

// TestDistIdempotentRequests: the same request ID delivered twice (a
// retry after a lost response, or a chaos duplicate) applies its effect
// once; the duplicate gets the original response replayed.
func TestDistIdempotentRequests(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: fixture(4), Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	turn := talker(t, c, "w")

	// Three deliveries of one request for a unit grant one lease...
	var lr turnResponse
	for i := 0; i < 3; i++ {
		if lr, err = turn("dup-turn-1", nil, true); err != nil {
			t.Fatal(err)
		}
		if lr.Unit == nil {
			t.Fatalf("delivery %d of the first turn got no unit", i+1)
		}
	}
	if grants := c.Registry().Snapshot()["cxlmc_lease_grants_total"]; grants != 1 {
		t.Fatalf("3 deliveries of one turn granted %v leases, want 1", grants)
	}
	// ...and three of the turn that hands it back and asks for the next
	// requeue the remainder once and grant one more: the same unit every time.
	addedBefore, _ := c.f.UnitCounts()
	var next turnResponse
	for i := 0; i < 3; i++ {
		cr, err := turn("dup-turn-2", handBack(lr, core.UnitReport{Remainder: [][]byte{lr.Unit.Snapshot}}), true)
		if err != nil {
			t.Fatal(err)
		}
		if cr.Stale {
			t.Fatalf("delivery %d of the completion was answered stale, not replayed", i+1)
		}
		if cr.Unit == nil || i > 0 && (cr.Unit.ID != next.Unit.ID || cr.Unit.Epoch != next.Unit.Epoch) {
			t.Fatalf("delivery %d was granted %+v, delivery 1 %+v", i+1, cr.Unit, next.Unit)
		}
		next = cr
	}
	addedAfter, done := c.f.UnitCounts()
	grants := c.Registry().Snapshot()["cxlmc_lease_grants_total"]
	if addedAfter != addedBefore+1 || done != 1 || grants != 2 {
		t.Fatalf("3 deliveries of one done+want: %d units added, %d done, %v leases granted in all; want 1, 1 and 2",
			addedAfter-addedBefore, done, grants)
	}
	// Handed back, so the stop below has no lease to wait out.
	if _, err := turn("dup-turn-3", handBack(next, core.UnitReport{Remainder: [][]byte{next.Unit.Snapshot}}), false); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	close(stop)
	c.Wait(stop)
}

// killedCoordinatorCheckpoint runs a coordinator on prog until a worker has
// explored a strict prefix of the tree, takes the periodic checkpoint a
// real coordinator would have on disk at that moment, and "SIGKILLs" it —
// server and frontier torn down with no final checkpoint. It returns the
// checkpoint's path; base is the uninterrupted run the prefix is checked
// against.
func killedCoordinatorCheckpoint(t *testing.T, check core.Config, prog func(*core.Program), base *core.Result) string {
	t.Helper()
	cpPath := filepath.Join(t.TempDir(), "dist.cp")
	persisted := check
	persisted.CheckpointPath, persisted.CheckpointInterval = cpPath, time.Hour // written by hand below
	c1, err := StartCoordinator(CoordinatorConfig{Check: persisted, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}

	// A worker explores a strict prefix of the tree (MaxExecutions is a
	// budget knob, not part of the exploration digest) and exits: its
	// unexplored remainder flushes back to the frontier, giving the
	// checkpoint real mid-run content — partial stats plus residue units.
	wc := check
	wc.MaxExecutions = 40
	if _, err := RunWorker(WorkerConfig{
		Check: wc, Program: prog,
		Coordinator: c1.Addr(), Name: "partial",
	}); err != nil {
		t.Fatalf("partial worker: %v", err)
	}
	// Wait for the flush to land, then take the "periodic" checkpoint a
	// real coordinator would have on disk.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, leased := c1.f.Progress(); leased == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flushed leases never resolved")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c1.ledger.Checkpoint(c1.f.Outstanding); err != nil {
		t.Fatal(err)
	}
	mid, _, _ := c1.f.Progress()
	if mid.Executions <= 0 || mid.Executions >= base.Executions {
		t.Fatalf("mid-run checkpoint covers %d of %d executions; wanted a strict middle", mid.Executions, base.Executions)
	}
	// SIGKILL: no Wait, no final checkpoint, no graceful anything.
	c1.srv.Close()
	c1.f.Close()
	return cpPath
}

// finishDistributed resumes cpPath with a fresh coordinator and one worker
// and returns the coordinator (for its registry) and the merged result.
func finishDistributed(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *core.Result) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	c, err := StartCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator's durable state and event log are its own.
	wcheck := cfg.Check
	wcheck.CheckpointPath, wcheck.EventTrace = "", nil
	go func() {
		RunWorker(WorkerConfig{
			Check: wcheck, Program: cfg.Program,
			Coordinator: c.Addr(), Name: "finisher",
		})
	}()
	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// TestDistCoordinatorCrashResume: a coordinator is "SIGKILLed" mid-run
// — its server and frontier are torn down with no final checkpoint,
// leaving only the last periodic write — and a fresh coordinator
// resuming from that file finishes the exploration with a result
// identical to an uninterrupted single-process run.
func TestDistCoordinatorCrashResume(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	cpPath := killedCoordinatorCheckpoint(t, check, prog, base)
	check.CheckpointPath = cpPath
	_, res := finishDistributed(t, CoordinatorConfig{Check: check, Program: prog})
	if !res.Resumed {
		t.Fatal("resumed run not marked Resumed")
	}
	assertParity(t, "crash-resume", res, base)
}

// TestRestartedCoordinatorRefusesOldIncarnation: a lease belongs to the start
// of the coordinator that granted it. A worker holds the whole tree when the
// coordinator is killed; its successor, resumed from the periodic checkpoint
// on the same file, numbers its units from 1 and its epochs from 0 again and
// grants "unit 1, epoch 0" to someone else. The old holder's completion — of
// a lease with those very numbers, claiming the tree explored — is answered
// stale and changes nothing, and the run finishes to the serial totals.
func TestRestartedCoordinatorRefusesOldIncarnation(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	persisted := check
	persisted.CheckpointPath, persisted.CheckpointInterval = filepath.Join(t.TempDir(), "dist.cp"), time.Hour
	c1, err := StartCoordinator(CoordinatorConfig{Check: persisted, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	old, err := talker(t, c1, "old")("old-turn-1", nil, true)
	if err != nil || old.Unit == nil {
		t.Fatalf("lease from the first coordinator: %v, unit %v", err, old.Unit)
	}
	if err := c1.ledger.Checkpoint(c1.f.Outstanding); err != nil {
		t.Fatal(err)
	}
	// SIGKILL: no Wait, no final checkpoint.
	c1.srv.Close()
	c1.f.Close()

	c2, err := StartCoordinator(CoordinatorConfig{Check: persisted, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	holder := talker(t, c2, "new")
	cur, err := holder("new-turn-1", nil, true)
	if err != nil || cur.Unit == nil {
		t.Fatalf("lease from the second coordinator: %v, unit %v", err, cur.Unit)
	}
	if cur.Unit.ID != old.Unit.ID || cur.Unit.Epoch != old.Unit.Epoch || cur.Run == old.Run {
		t.Fatalf("the scenario needs two leases alike but for the run: (%s, %d, %d) and (%s, %d, %d)",
			old.Run, old.Unit.ID, old.Unit.Epoch, cur.Run, cur.Unit.ID, cur.Unit.Epoch)
	}
	before := readFrontier(c2)
	late, err := talker(t, c2, "old")("old-turn-2", handBack(old, core.UnitReport{Tally: core.Tally{Counters: core.Counters{Executions: 7}}}), false)
	if err != nil || !late.Stale || late.Done {
		t.Fatalf("the old holder's completion: err %v, stale %v, done %v; want it rejected as stale", err, late.Stale, late.Done)
	}
	if after := readFrontier(c2); after != before {
		t.Fatalf("a lease of the first coordinator moved the second's frontier: %+v -> %+v", before, after)
	}
	if _, err := holder("new-turn-2", handBack(cur, core.UnitReport{Remainder: [][]byte{cur.Unit.Snapshot}}), false); err != nil {
		t.Fatal(err)
	}
	go RunWorker(WorkerConfig{Check: check, Program: prog, Coordinator: c2.Addr(), Name: "finisher"})
	res, err := c2.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "after a restart under a live lease", res, base)
	if res.StaleCompletions != 1 {
		t.Fatalf("StaleCompletions = %d, want the old holder's one", res.StaleCompletions)
	}
}

// TestRestartedWorkerIsNotReplayed: a request ID names the worker process, not
// only the name it was given. A worker restarted under its predecessor's name
// counts its turns from 1 again; were the ID the name and the count, its first
// turns would be answered from the idempotency cache with what the predecessor
// was told — leases long completed. Its first turn is answered fresh: a unit
// the predecessor never held, nothing stale, and the serial totals.
func TestRestartedWorkerIsNotReplayed(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartCoordinator(CoordinatorConfig{Check: check, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	type lease struct{ unit, epoch uint64 }
	var (
		mu       sync.Mutex
		restart  bool
		held     = map[lease]bool{} // by the first incarnation
		ids      = map[string]bool{}
		replayed []string
	)
	via := tap(t, c.Addr(),
		func(req turnRequest) {
			mu.Lock()
			defer mu.Unlock()
			if ids[req.ReqID] {
				replayed = append(replayed, req.ReqID)
			}
			ids[req.ReqID] = true
		},
		func(_ turnRequest, resp turnResponse) {
			mu.Lock()
			defer mu.Unlock()
			if resp.Unit == nil {
				return
			}
			l := lease{resp.Unit.ID, resp.Unit.Epoch}
			if !restart {
				held[l] = true
			} else if held[l] {
				replayed = append(replayed, fmt.Sprintf("lease (%d, %d) granted again", l.unit, l.epoch))
			}
		})
	// The first incarnation leaves on its own account after three executions:
	// two leases, both handed back.
	short := check
	short.MaxExecutions = 3
	first, err := RunWorker(WorkerConfig{Check: short, Program: prog, Coordinator: via, Name: "w"})
	if err != nil || first.Executions != 3 {
		t.Fatalf("first incarnation: %v, %+v", err, first)
	}
	mu.Lock()
	restart = true
	if len(held) < 2 {
		t.Fatalf("the first incarnation held %d leases; the scenario needs its second turn answered too", len(held))
	}
	mu.Unlock()
	second, err := RunWorker(WorkerConfig{Check: check, Program: prog, Coordinator: via, Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) > 0 {
		t.Fatalf("the restarted worker was answered from its predecessor's conversation: %v", replayed)
	}
	if res.StaleCompletions != 0 || second.StaleCompletions != 0 {
		t.Fatalf("stale completions: coordinator %d, worker %d, want none", res.StaleCompletions, second.StaleCompletions)
	}
	if !second.Complete || first.Executions+second.Executions != base.Executions {
		t.Fatalf("the two incarnations explored %d + %d executions (complete %v), serial run %d",
			first.Executions, second.Executions, second.Complete, base.Executions)
	}
	assertParity(t, "a worker restarted under its name", res, base)
}

// TestCrossModeResume: the checkpoint format is one format. A mid-run
// checkpoint a coordinator wrote is finished by a plain single-process run,
// and one the engine wrote is finished by a coordinator and a worker; either
// way every counter a serial run reports the same on every host — and the
// distinct-bug set — equals the uninterrupted serial run's. It pins the
// embedded-points convention of core.ResumeCheckpoint from both sides.
func TestCrossModeResume(t *testing.T) {
	check := core.Config{ContinueAfterBug: true, Workers: 1}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	assertSerialParity := func(t *testing.T, res *core.Result) {
		t.Helper()
		if !res.Resumed {
			t.Fatal("resumed run not marked Resumed")
		}
		assertParity(t, "cross-mode", res, base)
		if res.Steps != base.Steps {
			t.Fatalf("steps %d != uninterrupted serial run's %d", res.Steps, base.Steps)
		}
	}
	t.Run("coordinator to engine", func(t *testing.T) {
		cfg := check
		cfg.CheckpointPath = killedCoordinatorCheckpoint(t, check, prog, base)
		res, err := core.Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		assertSerialParity(t, res)
	})
	t.Run("engine to coordinator", func(t *testing.T) {
		cfg := check
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "engine.cp")
		cfg.MaxExecutions = 40
		mid, err := core.Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if mid.Complete || mid.Executions != 40 {
			t.Fatalf("engine leg: complete=%v after %d executions; wanted a strict middle", mid.Complete, mid.Executions)
		}
		cfg.MaxExecutions = 0
		_, res := finishDistributed(t, CoordinatorConfig{Check: cfg, Program: prog})
		assertSerialParity(t, res)
	})
}

// lockedBuffer is an event-trace sink safe to read while handler
// goroutines may still be draining into it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDistCorruptCheckpointQuarantine: the coordinator treats an
// undecodable checkpoint — the file itself, or one unit inside a
// well-formed envelope of the right identity — exactly as the engine does:
// the file moves to <path>.corrupt, the exploration starts fresh and
// completes with baseline parity, and the quarantine shows in Stats, the
// metrics and the event trace. A checkpoint of another exploration is not
// corruption: a wrong seed stays a hard error naming both seeds.
func TestDistCorruptCheckpointQuarantine(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(8)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	cfgDigest, progDigest, err := core.ExplorationDigests(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	envelope := func(units [][]byte) *core.Checkpoint {
		return core.NewCheckpoint(check.Seed, cfgDigest, progDigest, units, core.Tally{}, core.Resilience{}, 0, false, false)
	}
	whole := [][]byte{decision.NewTree().Snapshot()}

	for name, corrupt := range map[string]func(path string){
		"bit-flipped file": func(path string) {
			if err := core.WriteCheckpoint(path, envelope(whole), nil); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[0] ^= 0x20 // '{' becomes '[': no longer the envelope object
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"undecodable unit": func(path string) {
			if err := core.WriteCheckpoint(path, envelope([][]byte{whole[0], {0xDE, 0xAD, 0xBE, 0xEF}}), nil); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dist.cp")
			corrupt(path)
			var trace lockedBuffer
			traced := check
			traced.CheckpointPath, traced.EventTrace = path, &trace
			c, res := finishDistributed(t, CoordinatorConfig{Check: traced, Program: prog})
			if !res.Quarantined || res.Resumed {
				t.Fatalf("quarantined=%v resumed=%v", res.Quarantined, res.Resumed)
			}
			assertParity(t, "post-quarantine", res, base)
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Fatalf("corrupt file not preserved: %v", err)
			}
			if n := c.Registry().Snapshot()["cxlmc_checkpoint_quarantines_total"]; n != 1 {
				t.Fatalf("cxlmc_checkpoint_quarantines_total = %v, want 1", n)
			}
			if !strings.Contains(trace.String(), obs.EvCheckpointQuarantine.String()) {
				t.Fatalf("no %s event in the trace:\n%s", obs.EvCheckpointQuarantine, trace.String())
			}
		})
	}

	t.Run("wrong seed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "dist.cp")
		if err := core.WriteCheckpoint(path, envelope(whole), nil); err != nil {
			t.Fatal(err)
		}
		other := check
		other.Seed, other.CheckpointPath = 5, path
		_, err := StartCoordinator(CoordinatorConfig{Check: other, Program: prog, Addr: "127.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), "seed 0") || !strings.Contains(err.Error(), "seed 5") {
			t.Fatalf("err = %v, want a hard error naming seed 0 and seed 5", err)
		}
		if _, serr := os.Stat(path + ".corrupt"); !os.IsNotExist(serr) {
			t.Fatal("a checkpoint of another seed was quarantined")
		}
	})
}

// TestDistChaosSweep: every network fault class at once — client-side
// drops, delays, duplicates and partitions, server-side 5xx — and the
// distributed run still matches the baseline exactly, with every work
// unit accounted for (none lost, none double-counted) and the retries
// surfaced in Stats.
func TestDistChaosSweep(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(16)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}

	serverInj := chaos.New(chaos.Config{Seed: 7, Net5xxPct: 25, MaxFaults: 500})
	served := check
	served.Chaos = serverInj
	c, err := StartCoordinator(CoordinatorConfig{
		Check: served, Program: prog, Addr: "127.0.0.1:0",
		// Long enough that no live worker's lease lapses under injected
		// delays — reclaim-under-fire is the abandoned-lease test's job.
		LeaseTTL: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	injs := make([]*chaos.Injector, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		injs[i] = chaos.New(chaos.Config{
			Seed:            int64(100 + i),
			NetDropPct:      25,
			NetDelayPct:     25,
			NetDelayDur:     time.Millisecond,
			NetDupPct:       25,
			NetPartitionPct: 3,
			NetPartitionDur: 20 * time.Millisecond,
			MaxFaults:       500,
		})
		go func(i int) {
			defer wg.Done()
			chaotic := check
			chaotic.Chaos = injs[i]
			if _, err := RunWorker(WorkerConfig{
				Check: chaotic, Program: prog,
				Coordinator: c.Addr(), Name: fmt.Sprintf("chaotic-%d", i),
			}); err != nil {
				t.Errorf("chaotic worker %d: %v", i, err)
			}
		}(i)
	}
	res, err := c.Wait(nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "chaos", res, base)
	added, done := c.f.UnitCounts()
	if added != done {
		t.Fatalf("%d units added but %d completed under chaos — work lost or duplicated", added, done)
	}
	faults := serverInj.Stats().Total()
	for _, inj := range injs {
		faults += inj.Stats().Total()
	}
	if faults == 0 {
		t.Fatal("chaos sweep injected no faults; the run proved nothing")
	}
	t.Logf("chaos sweep: %d units, %d faults injected, %d rpc retries, %d reclaims, %d stale rejects",
		added, faults, res.RPCRetries, res.LeaseReclaims, res.StaleCompletions)
}

// TestDistWorkerGivesUpOnDeadCoordinator: an idle worker whose coordinator
// has vanished stops retrying after its give-up window instead of hanging the
// process forever.
func TestDistWorkerGivesUpOnDeadCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the 2s give-up floor")
	}
	cv := &conversation{c: obs.NewClient("127.0.0.1:1", 50*time.Millisecond, nil, nil),
		id: turnRequest{Worker: "orphan"}, run: "gone", ttl: 100 * time.Millisecond}
	start := time.Now()
	resp, err := cv.turn(context.Background(), nil, true)
	if resp.Unit != nil || err == nil || obs.IsRejected(err) {
		t.Fatalf("turn = (%+v, %v), want no unit and the transport's error", resp, err)
	}
	if d := time.Since(start); d < 2*time.Second || d > 30*time.Second {
		t.Fatalf("gave up after %v; want a few seconds", d)
	}
}

// TestNextBudget: the rule a worker sizes its next lease by.
func TestNextBudget(t *testing.T) {
	const ttl = 6 * time.Second
	for _, c := range []struct {
		name    string
		budget  int
		took    time.Duration
		spent   bool
		waiting int
		want    int
	}{
		{"spent quickly, nobody waiting: doubles", 4, 500 * time.Millisecond, true, 0, 8},
		{"first lease doubles too", 1, time.Millisecond, true, 0, 2},
		{"a parked peer stops the growth", 4, 500 * time.Millisecond, true, 1, 4},
		{"two parked peers as well", 4, 500 * time.Millisecond, true, 2, 4},
		{"a parked peer does not stop a lease of a few milliseconds growing", 4, 20 * time.Millisecond, true, 1, 8},
		{"a 256th of the TTL is where it does", 4, 24 * time.Millisecond, true, 1, 4},
		{"unit ran out before the budget: stays", 4, 500 * time.Millisecond, false, 0, 4},
		{"a sixth of the TTL is no longer quick", 4, time.Second, true, 0, 4},
		{"between a sixth and a third: stays", 4, 1500 * time.Millisecond, true, 0, 4},
		{"past a third: halves", 4, 2001 * time.Millisecond, true, 0, 2},
		{"past a third with a peer parked: halves", 4, 2001 * time.Millisecond, true, 3, 2},
		{"past a third, unspent: halves", 5, 3 * time.Second, false, 0, 2},
		{"one execution is the floor", 1, 5 * time.Second, true, 0, 1},
	} {
		if got := nextBudget(c.budget, c.took, ttl, c.spent, c.waiting); got != c.want {
			t.Errorf("%s: nextBudget(%d, %v, %v, %v, %d) = %d, want %d", c.name, c.budget, c.took, ttl, c.spent, c.waiting, got, c.want)
		}
	}
}
