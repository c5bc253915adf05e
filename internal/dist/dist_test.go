package dist

import (
	"bytes"
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
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/obs"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
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

// tap stands between one worker and the coordinator at addr. While refuse
// (when non-nil) returns true for a call's path the call is answered 503
// and not forwarded — a partition, as that worker sees it; see is shown
// every forwarded call with its response before the worker is. It returns
// the address the worker should join.
func tap(t *testing.T, addr string, refuse func(path string) bool, see func(path string, req, resp []byte)) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := io.ReadAll(r.Body)
		if refuse != nil && refuse(r.URL.Path) {
			http.Error(w, "tap: refused", http.StatusServiceUnavailable)
			return
		}
		res, err := http.Post("http://"+addr+r.URL.Path, "application/json", bytes.NewReader(req))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer res.Body.Close()
		resp, _ := io.ReadAll(res.Body)
		see(r.URL.Path, req, resp)
		w.WriteHeader(res.StatusCode)
		w.Write(resp)
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestTransportRetriesTransientFaults: 5xx and connection failures are
// retried with backoff; a 4xx surfaces immediately as a rejection.
func TestTransportRetriesTransientFaults(t *testing.T) {
	var mu sync.Mutex
	fails := 2
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer srv.Close()

	tr := NewTransport(srv.URL, TransportConfig{Backoff: time.Millisecond})
	var resp struct {
		OK bool `json:"ok"`
	}
	if err := tr.Call("/x", struct{}{}, &resp); err != nil {
		t.Fatalf("Call after transient 503s: %v", err)
	}
	if !resp.OK {
		t.Fatal("response not decoded")
	}
	if tr.Retries() != 2 {
		t.Fatalf("Retries = %d, want 2", tr.Retries())
	}

	rej := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no", http.StatusConflict)
	}))
	defer rej.Close()
	tr2 := NewTransport(rej.URL, TransportConfig{Backoff: time.Millisecond})
	err := tr2.Call("/x", struct{}{}, nil)
	if err == nil || !IsRejected(err) {
		t.Fatalf("409 should be a permanent rejection, got %v", err)
	}
	if tr2.Retries() != 0 {
		t.Fatalf("a permanent 4xx was retried %d time(s)", tr2.Retries())
	}
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
// is turned away at join with a permanent rejection, not retried into
// the frontier.
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
		t.Fatal("join with a mismatched program digest succeeded")
	}
}

// TestDistAbandonedLeaseReclaim is the lost-worker story end to end. A
// worker leases the only unit and is then partitioned away — it keeps
// exploring, but its renewals stop arriving. The coordinator reclaims the
// lease after the TTL and a healthy worker takes the unit over. When the
// partition heals the victim's next renewal is answered stale, and it
// abandons the unit within one execution boundary instead of exploring to the
// end a lease whose completion will be rejected; that completion, and a
// replay of it much later, are rejected as stale, and the global result still
// matches the single-process baseline exactly — LeaseReclaims and
// StaleCompletions record the recovery.
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

	// The victim's view of the wire: renewals are cut until the partition
	// heals; its first lease, what it had executed when the coordinator told
	// it that lease was stale, and its completion of it are recorded.
	var (
		partitioned atomic.Bool
		mu          sync.Mutex
		first       *wireUnit
		atStale     = -1
		abandoned   *completeRequest
	)
	partitioned.Store(true)
	reg := obs.NewRegistry()
	viaTap := tap(t, c.Addr(),
		func(path string) bool { return path == "/v1/renew" && partitioned.Load() },
		func(path string, req, resp []byte) {
			mu.Lock()
			defer mu.Unlock()
			switch path {
			case "/v1/lease":
				var lr leaseResponse
				if first == nil && json.Unmarshal(resp, &lr) == nil {
					first = lr.Unit
				}
			case "/v1/renew":
				var rr renewResponse
				if atStale < 0 && json.Unmarshal(resp, &rr) == nil && len(rr.StaleIDs) > 0 {
					atStale = int(reg.Snapshot()["cxlmc_executions_total"])
				}
			case "/v1/complete":
				var cr completeRequest
				if abandoned == nil && first != nil && json.Unmarshal(req, &cr) == nil &&
					cr.UnitID == first.ID && cr.Epoch == first.Epoch {
					abandoned = &cr
				}
			}
		})
	// One engine worker, slowed to 200ms an execution while the story plays
	// out, so "one boundary" is one execution and relaying the stale answer
	// (tens of milliseconds when every goroutine shares one P) takes no time
	// by comparison.
	victim := check
	victim.Workers = 1
	victim.Obs = reg
	victim.Chaos = chaos.New(chaos.Config{StallPct: 100, StallDur: 200 * time.Millisecond, MaxFaults: 8})
	done := make(chan error, 2)
	go func() {
		_, err := RunWorker(WorkerConfig{
			Check: victim, Program: prog, Coordinator: viaTap, Name: "victim",
			Transport: TransportConfig{Attempts: 1}, // a cut renewal fails at once
		})
		done <- err
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
	// A healthy worker arrives; it can only make progress once the
	// victim's lease is reclaimed and re-issued. (At 2ms an execution it
	// cannot finish the run before the victim has been heard from again.)
	healthy := check
	healthy.Chaos = chaos.New(chaos.Config{StallPct: 100, StallDur: 2 * time.Millisecond})
	go func() {
		_, err := RunWorker(WorkerConfig{
			Check: healthy, Program: prog,
			Coordinator: c.Addr(), Name: "healthy",
		})
		done <- err
	}()
	waitFor("the partitioned worker's lease was never reclaimed", func() bool { return c.f.Stats().Reclaims > 0 })
	partitioned.Store(false)

	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if werr := <-done; werr != nil {
			t.Fatalf("worker: %v", werr)
		}
	}
	assertParity(t, "post-reclaim", res, base)
	if res.LeaseReclaims < 1 || res.StaleCompletions < 1 {
		t.Fatalf("LeaseReclaims = %d, StaleCompletions = %d, want >= 1 each", res.LeaseReclaims, res.StaleCompletions)
	}
	mu.Lock()
	defer mu.Unlock()
	if atStale < 0 || abandoned == nil {
		t.Fatalf("the victim was told of the stale lease: %v; completed it: %v", atStale >= 0, abandoned != nil)
	}
	if after := abandoned.Report.Executions - atStale; after > 1 || len(abandoned.Report.Remainder) == 0 {
		t.Fatalf("told its lease was stale, the victim ran %d more executions and returned %d units; want at most 1 and the unexplored rest",
			after, len(abandoned.Report.Remainder))
	}

	// The victim's completion arrives once more, long after the fact (the
	// coordinator lingers briefly after the run for exactly this kind of
	// straggler): still rejected.
	var cr completeResponse
	abandoned.ReqID = "victim-complete-again"
	err = NewTransport(c.Addr(), TransportConfig{}).Call("/v1/complete", abandoned, &cr)
	if err == nil && !cr.Stale {
		t.Fatal("stale completion from the reclaimed lease was accepted")
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
	tr := NewTransport(c.Addr(), TransportConfig{})
	var lr leaseResponse
	if err := tr.Call("/v1/lease", leaseRequest{Worker: "mangler", ReqID: "mangler-lease-1"}, &lr); err != nil || lr.Unit == nil {
		t.Fatalf("lease: %v, unit %v", err, lr.Unit)
	}
	flipped := append([]byte(nil), lr.Unit.Snapshot...)
	flipped[0] ^= 0x01
	complete := func(reqID string, remainder ...[]byte) error {
		return tr.Call("/v1/complete", completeRequest{
			Worker: "mangler", ReqID: reqID, UnitID: lr.Unit.ID, Epoch: lr.Unit.Epoch,
			Report: core.UnitReport{Tally: core.Tally{Counters: core.Counters{Executions: 5}}, Remainder: remainder},
		}, nil)
	}
	if err := complete("mangler-complete-1", lr.Unit.Snapshot, flipped); !IsRejected(err) {
		t.Fatalf("a bit-flipped remainder was answered %v, want a 4xx rejection", err)
	}
	added, done := c.f.UnitCounts()
	tally, queued, leased := c.f.Progress()
	if added != 1 || done != 0 || tally.Executions != 0 || queued != 0 || leased != 1 {
		t.Fatalf("after the rejected completion: %d added, %d done, %d executions, %d queued, %d leased; want 1 0 0 0 1",
			added, done, tally.Executions, queued, leased)
	}
	if err := complete("mangler-complete-2", lr.Unit.Snapshot); err != nil {
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

// TestWorkerYieldsOnDemand: donation is completing early. With two workers
// and one unit, the second starves, the first hears of it on its next
// renewal, stops at an execution boundary and returns what is left, and the
// coordinator splits that for both — over and over, since the leases are
// short. Units come back (cxlmc_units_donated_total), none is lost, no report
// carries a negative counter, and totals and bugs equal the serial run's,
// every token replaying.
func TestWorkerYieldsOnDemand(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	// Sized to outlast a few renewals (every LeaseTTL/3) on one P: 320
	// executions, ~65 ms serially since loads resolve a run at a time (32
	// keys, 197 executions, took that long before and take 30 ms now).
	prog := ccehProgram(48)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := StartCoordinator(CoordinatorConfig{
		Check: check, Program: prog, Addr: "127.0.0.1:0",
		LeaseTTL: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var negative []string
	viaTap := tap(t, c.Addr(), nil, func(path string, req, _ []byte) {
		var cr completeRequest
		if path != "/v1/complete" || json.Unmarshal(req, &cr) != nil {
			return
		}
		counters := reflect.ValueOf(cr.Report.Counters)
		for i := 0; i < counters.NumField(); i++ {
			if counters.Field(i).Int() < 0 {
				mu.Lock()
				negative = append(negative, fmt.Sprintf("%s: %s = %d", cr.ReqID, counters.Type().Field(i).Name, counters.Field(i).Int()))
				mu.Unlock()
			}
		}
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := RunWorker(WorkerConfig{
				Check: check, Program: prog, Coordinator: viaTap, Name: fmt.Sprintf("w%d", i),
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
	assertParity(t, "yielding", res, base)
	if res.Steps != base.Steps {
		t.Fatalf("steps %d != serial run's %d", res.Steps, base.Steps)
	}
	if donated := c.Registry().Snapshot()["cxlmc_units_donated_total"]; donated == 0 {
		t.Fatal("no worker ever returned a remainder: nothing was donated")
	}
	if added, done := c.f.UnitCounts(); added != done {
		t.Fatalf("%d units added but %d completed — work lost or duplicated", added, done)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(negative) > 0 {
		t.Fatalf("reports with negative counters: %v", negative)
	}
	for _, b := range res.Bugs {
		if rr, err := core.Replay(b.ReproToken, core.Config{}, prog); err != nil || !rr.Buggy() {
			t.Fatalf("token of %q does not replay to a bug: %v", b.Message, err)
		}
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
	tr := NewTransport(c.Addr(), TransportConfig{})

	// Three deliveries of one lease request grant one lease...
	var lr leaseResponse
	for i := 0; i < 3; i++ {
		if err := tr.Call("/v1/lease", leaseRequest{Worker: "w", ReqID: "dup-lease-1"}, &lr); err != nil {
			t.Fatal(err)
		}
		if lr.Unit == nil {
			t.Fatalf("delivery %d of the lease request got no unit", i+1)
		}
	}
	if grants := c.Registry().Snapshot()["cxlmc_lease_grants_total"]; grants != 1 {
		t.Fatalf("3 deliveries of one lease request granted %v leases, want 1", grants)
	}
	// ...and three of its completion requeue the remainder once.
	addedBefore, _ := c.f.UnitCounts()
	var cr completeResponse
	for i := 0; i < 3; i++ {
		if err := tr.Call("/v1/complete", completeRequest{
			Worker: "w", ReqID: "dup-complete-1", UnitID: lr.Unit.ID, Epoch: lr.Unit.Epoch,
			Report: core.UnitReport{Remainder: [][]byte{lr.Unit.Snapshot}},
		}, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Stale {
			t.Fatalf("delivery %d of the completion was answered stale, not replayed", i+1)
		}
	}
	addedAfter, done := c.f.UnitCounts()
	if addedAfter != addedBefore+1 || done != 1 {
		t.Fatalf("3 deliveries of one completion: %d units added, %d done; want 1 and 1", addedAfter-addedBefore, done)
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
	if err := c1.writeCheckpoint(false); err != nil {
		t.Fatal(err)
	}
	mid, _, _ := c1.f.Progress()
	if mid.Executions <= 0 || mid.Executions >= base.Executions {
		t.Fatalf("mid-run checkpoint covers %d of %d executions; wanted a strict middle", mid.Executions, base.Executions)
	}
	// SIGKILL: no Wait, no final checkpoint, no graceful anything.
	c1.srv.Close()
	close(c1.cpStop)
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
		// Short enough that renewals run (they carry the coordinator's
		// demand signal, which is what triggers donation splits), long
		// enough that no live worker's lease lapses under injected
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
			if _, err := RunWorker(WorkerConfig{
				Check: check, Program: prog,
				Coordinator: c.Addr(), Name: fmt.Sprintf("chaotic-%d", i),
				Transport: TransportConfig{Attempts: 10, Backoff: time.Millisecond, Chaos: injs[i]},
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

// TestDistWorkerGivesUpOnDeadCoordinator: an idle RemoteFrontier whose
// coordinator has vanished stops retrying after its give-up window
// instead of hanging the process forever.
func TestDistWorkerGivesUpOnDeadCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the 2s give-up floor")
	}
	tr := NewTransport("127.0.0.1:1", TransportConfig{Attempts: 1, Backoff: time.Millisecond, Timeout: 50 * time.Millisecond})
	rf := NewRemoteFrontier(tr, "orphan", 100*time.Millisecond)
	defer rf.Close()
	start := time.Now()
	u, err := rf.Lease(nil)
	if u != nil || err != nil {
		t.Fatalf("Lease = (%v, %v), want (nil, nil) give-up", u, err)
	}
	if d := time.Since(start); d < 2*time.Second || d > 30*time.Second {
		t.Fatalf("gave up after %v; want a few seconds", d)
	}
}
