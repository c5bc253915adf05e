package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	cxlmc "repro"
	"repro/internal/chaos"
	"repro/internal/recipe"
)

// testServer starts a server on an ephemeral port with test-friendly
// cadences, registering cleanup.
func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Base.CheckpointEvery == 0 {
		cfg.Base.CheckpointEvery = 8
	}
	if cfg.Base.CheckpointInterval == 0 {
		cfg.Base.CheckpointInterval = 50 * time.Millisecond
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// journalRecords parses the journal in dir line by line, in file order.
func journalRecords(t *testing.T, dir string) []record {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []record
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// fastSpec is a small CCEH exploration that finds two seeded bugs in a
// few milliseconds.
func fastSpec(tenant string) Spec {
	return Spec{
		Tenant: tenant, Bench: "CCEH", Keys: 4, InsertWorkers: 1,
		Bugs: 1, Seed: 1, ContinueAfterBug: true,
	}
}

// A job submitted over the API runs to done and reports the same bugs a
// direct engine run finds.
func TestJobLifecycleDone(t *testing.T) {
	s := testServer(t, Config{})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 30*time.Second)

	st, err := c.Submit(ctx, fastSpec("alice"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID == "" {
		t.Fatalf("submit status = %+v, want an id", st)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Result == nil || len(fin.Result.Bugs) == 0 {
		t.Fatalf("done without bugs in result: %+v", fin.Result)
	}
	if !fin.Result.Complete {
		t.Fatal("result not marked complete")
	}
	snap := s.Registry().Snapshot()
	if snap["cxlmc_jobs_done"] != 1 || snap["cxlmc_jobs_queued"] != 1 {
		t.Fatalf("metrics: done=%v queued=%v, want 1/1", snap["cxlmc_jobs_done"], snap["cxlmc_jobs_queued"])
	}
}

// Bad specs are rejected at submit time with a 400, including unknown
// fields — the whitelist is strict.
func TestSubmitValidation(t *testing.T) {
	s := testServer(t, Config{})
	url := "http://" + s.Addr() + "/jobs"
	for _, tc := range []struct {
		name, body string
	}{
		{"no program", `{"tenant":"a"}`},
		{"both programs", `{"bench":"CCEH","gen":{"seed":1}}`},
		{"unknown bench", `{"bench":"B-Tree-9000"}`},
		{"unknown field", `{"bench":"CCEH","checkpoint_path":"/etc/passwd"}`},
		{"non-whitelisted knob", `{"bench":"CCEH","spill_dir":"/tmp"}`},
		{"bad tenant", `{"bench":"CCEH","tenant":"../../etc"}`},
		{"negative", `{"bench":"CCEH","keys":-1}`},
	} {
		resp, err := http.Post(url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if snap := s.Registry().Snapshot(); snap["cxlmc_jobs_queued"] != 0 {
		t.Fatalf("rejected specs were queued: %v", snap["cxlmc_jobs_queued"])
	}
}

// A tenant at its queue bound gets 429 with a Retry-After hint, and the
// rejection is counted; other tenants are unaffected.
func TestQueueBound429(t *testing.T) {
	// A single slow pool worker keeps the queue from draining while we
	// fill it: the first job occupies the worker, the rest sit queued.
	dir := t.TempDir()
	s := testServer(t, Config{Dir: dir, PoolWorkers: 1, QueueDepth: 2})
	url := "http://" + s.Addr() + "/jobs"

	slow := Spec{
		Tenant: "alice", Bench: "P-BwTree", Keys: 10, InsertWorkers: 2,
		Bugs: 1, Seed: 1, ContinueAfterBug: true, Reduction: cxlmc.SwitchOff,
	}
	post := func(sp Spec) *http.Response {
		body, _ := json.Marshal(sp)
		resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp
	}
	if got := post(slow).StatusCode; got != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", got)
	}
	// Give the pool a moment to claim it so the queue is empty again.
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if got := post(fastSpec("alice")).StatusCode; got != http.StatusAccepted {
			t.Fatalf("fill submit %d: %d, want 202", i, got)
		}
	}
	resp := post(fastSpec("alice"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant still gets in: the bound is per tenant.
	if got := post(fastSpec("bob")).StatusCode; got != http.StatusAccepted {
		t.Fatalf("other-tenant submit: %d, want 202", got)
	}
	if snap := s.Registry().Snapshot(); snap["cxlmc_jobs_rejected"] != 1 {
		t.Fatalf("rejected = %v, want 1", snap["cxlmc_jobs_rejected"])
	}
	// The rejected submission left no record: four ids, the four accepted.
	s.Close()
	ids := make(map[string]bool)
	for _, rec := range journalRecords(t, dir) {
		ids[rec.ID] = true
	}
	if len(ids) != 4 {
		t.Fatalf("journal holds records of %d jobs, want the 4 accepted: %v", len(ids), ids)
	}
}

// A job's queued record, the one that carries its spec, is in the journal
// before the job can be claimed: with idle pool workers popping each job the
// moment it is pushed, no running record may precede it. Recovery is
// last-writer-wins, so a queued record landing after the running one made a
// restart forget that the job had been running.
func TestQueuedIsJournaledFirst(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{Dir: dir, PoolWorkers: 4})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 60*time.Second)

	const n = 24
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.Submit(ctx, fastSpec(fmt.Sprintf("t%d", i%3)))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, id := range ids {
		if _, err := c.Wait(ctx, id, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	first := make(map[string]record)
	for _, rec := range journalRecords(t, dir) {
		if _, seen := first[rec.ID]; !seen {
			first[rec.ID] = rec
		}
	}
	for _, id := range ids {
		if rec := first[id]; rec.State != StateQueued || rec.Spec == nil {
			t.Errorf("%s: first journal line is %q (spec %v), want queued with the spec", id, rec.State, rec.Spec != nil)
		}
	}
}

// TestDrainClosesUnusedConnection: a client connection dialled and never
// used — what a pooling client leaves behind now and then — does not hold
// Drain for the 5 s net/http grants a new connection.
func TestDrainClosesUnusedConnection(t *testing.T) {
	s := testServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(20 * time.Millisecond) // accepted
	start := time.Now()
	if err := s.Drain(ctxT(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Drain took %v with one unused connection open", d)
	}
}

// The queue drains round-robin across tenants: with one worker and a
// burst from one tenant queued first, a later-submitted second-tenant
// job still runs second, not last.
func TestTenantFairness(t *testing.T) {
	q := newFairQueue(10)
	mk := func(id, tenant string) *job { return &job{id: id, tenant: tenant} }
	q.push(mk("a1", "alice"))
	q.push(mk("a2", "alice"))
	q.push(mk("a3", "alice"))
	q.push(mk("b1", "bob"))
	q.push(mk("c1", "carol"))
	var order []string
	for i := 0; i < 5; i++ {
		order = append(order, q.pop().id)
	}
	got := strings.Join(order, ",")
	// Alice gets one slot per round, interleaved with bob and carol.
	want := "a1,b1,c1,a2,a3"
	if got != want {
		t.Fatalf("drain order %s, want %s", got, want)
	}
}

// Cancelling a queued job ends it without running; cancelling a running
// job stops the engine at its next execution boundary.
func TestCancel(t *testing.T) {
	s := testServer(t, Config{PoolWorkers: 1})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 30*time.Second)

	slow := Spec{
		Tenant: "a", Bench: "P-BwTree", Keys: 10, InsertWorkers: 2,
		Bugs: 1, Seed: 1, ContinueAfterBug: true, Reduction: cxlmc.SwitchOff,
	}
	running, err := c.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, fastSpec("a"))
	if err != nil {
		t.Fatal(err)
	}

	// The queued job cancels instantly.
	if st, err := c.Cancel(ctx, queued.ID); err != nil || st.State != StateCancelled {
		t.Fatalf("cancel queued: state=%v err=%v, want cancelled", st.State, err)
	}
	// Wait until the slow job is actually running, then cancel it.
	for {
		st, err := c.Status(ctx, running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	fin, err := c.Wait(ctx, running.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", fin.State)
	}
	// Cancelling a terminal job is a conflict.
	if _, err := c.Cancel(ctx, running.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("cancel terminal: err=%v, want 409", err)
	}
	// Cancel is POST /jobs/{id}/cancel alone: DELETE is no alias of it.
	req, err := http.NewRequest(http.MethodDelete, "http://"+s.Addr()+"/jobs/"+running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /jobs/{id} = %d, want 405", resp.StatusCode)
	}
	snap := s.Registry().Snapshot()
	if snap["cxlmc_jobs_cancelled"] != 2 {
		t.Fatalf("cancelled = %v, want 2", snap["cxlmc_jobs_cancelled"])
	}
}

// TestJobSurvivesBoundedChaos: injected write and rename faults on the
// checkpoint and journal files are absorbed by the file layer's retry, and
// the job completes with its bugs. Four faults are fewer than chaos.Retry's
// attempts, so no single file operation can use its retries up.
func TestJobSurvivesBoundedChaos(t *testing.T) {
	inj := chaos.New(chaos.Config{Seed: 7, WriteErrPct: 20, RenameErrPct: 20, MaxFaults: 4})
	s := testServer(t, Config{Base: cxlmc.Config{Chaos: inj}})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 60*time.Second)

	st, err := c.Submit(ctx, fastSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done despite chaos", fin.State, fin.Error)
	}
	if fin.Result == nil || len(fin.Result.Bugs) == 0 {
		t.Fatal("chaos-survived job lost its bugs")
	}
}

// TestRunErrorFailsJob: a run that returns an error fails its job on that
// first run. Every file read fails, so the engine's checkpoint read uses up
// chaos.Retry's attempts; the journal's recovery reads with os.ReadFile and
// the server starts. The job server runs the job once and re-runs nothing.
func TestRunErrorFailsJob(t *testing.T) {
	s := testServer(t, Config{Base: cxlmc.Config{Chaos: chaos.New(chaos.Config{ReadErrPct: 100})}})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 30*time.Second)

	st, err := c.Submit(ctx, fastSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || !strings.Contains(fin.Error, "reading checkpoint") {
		t.Fatalf("state %s (%s), want failed reading its checkpoint", fin.State, fin.Error)
	}
	if got := s.Registry().Snapshot()["cxlmc_jobs_running"]; got != 1 {
		t.Fatalf("the job ran %v times, want 1", got)
	}
}

// refuses posts body and requires a 400 whose error names field.
func refuses(t *testing.T, s *Server, body, field string) {
	t.Helper()
	resp, err := http.Post("http://"+s.Addr()+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	json.NewDecoder(resp.Body).Decode(&e)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, field) {
		t.Errorf("%s: %d %q, want 400 naming %s", body, resp.StatusCode, e.Error, field)
	}
}

// TestSpecBoundsWorkload: every insert worker is two simulated threads a pool
// worker builds on every execution, so a submitted spec asks for 1..8 of them
// (0 is the default, one), like a generated program's threads per machine,
// at most recipe.MaxKeys keys (0 is the default, ten) and a stride of at
// most recipe.MaxStride (0 is the default, one).
func TestSpecBoundsWorkload(t *testing.T) {
	s := testServer(t, Config{})
	for _, n := range []int{-1, 9, 20000} {
		refuses(t, s, fmt.Sprintf(`{"bench":"CCEH","insert_workers":%d}`, n), "insert_workers")
	}
	for _, n := range []int{0, 1, 8} {
		if sp := (Spec{Bench: "CCEH", InsertWorkers: n}); sp.normalize() != nil {
			t.Errorf("insert_workers %d refused: %v", n, sp.normalize())
		}
	}
	// A key count whose progress array's byte size wraps to 0 (1<<61 × 8)
	// is refused with the rest: no spec here is ever run.
	for _, n := range []int{-1, recipe.MaxKeys + 1, 1 << 61} {
		refuses(t, s, fmt.Sprintf(`{"bench":"CCEH","keys":%d}`, n), "keys")
	}
	for _, n := range []int{0, 1, recipe.MaxKeys} {
		if sp := (Spec{Bench: "CCEH", Keys: n}); sp.normalize() != nil {
			t.Errorf("keys %d refused: %v", n, sp.normalize())
		}
	}
	for _, n := range []int{-1, recipe.MaxStride + 1} {
		refuses(t, s, fmt.Sprintf(`{"bench":"P-ART","stride":%d}`, n), "stride")
	}
	for _, n := range []int{0, 1, recipe.MaxStride} {
		if sp := (Spec{Bench: "P-ART", Stride: n}); sp.normalize() != nil {
			t.Errorf("stride %d refused: %v", n, sp.normalize())
		}
	}
	if snap := s.Registry().Snapshot(); snap["cxlmc_jobs_queued"] != 0 {
		t.Fatalf("out-of-bounds specs were queued: %v", snap["cxlmc_jobs_queued"])
	}
}

// TestGovernorFieldsRefused: deleted knobs — the memory governor's and the
// prefix-fork switch — are gone from the spec, and a client that still sends
// them hears so.
func TestGovernorFieldsRefused(t *testing.T) {
	s := testServer(t, Config{})
	refuses(t, s, `{"bench":"CCEH","mem_budget_bytes":131072}`, "mem_budget_bytes")
	refuses(t, s, `{"bench":"CCEH","governor_every":1}`, "governor_every")
	refuses(t, s, `{"bench":"CCEH","prefix_fork":"off"}`, "prefix_fork")
}

// TestParentJournalPrefixForkRecovers: a journal written while the spec had
// a prefix_fork key holds it in the job's spec. Recovery adopts such a job
// and finishes it with the same Result as the same job journaled without
// the key.
func TestParentJournalPrefixForkRecovers(t *testing.T) {
	dir := t.TempDir()
	sp := fastSpec("a")
	then := time.Now().UTC().Add(-time.Minute)
	plain := mustLine(t, record{ID: "j-000001", Tenant: "a", State: StateQueued, Spec: &sp, Time: then})
	forked := strings.Replace(mustLine(t, record{ID: "j-000002", Tenant: "a", State: StateQueued, Spec: &sp, Time: then}),
		`"spec":{`, `"spec":{"prefix_fork":"off",`, 1)
	if !strings.Contains(forked, `"prefix_fork":"off"`) {
		t.Fatalf("journal line carries no prefix_fork key: %s", forked)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(plain+forked), 0o644); err != nil {
		t.Fatal(err)
	}

	s := testServer(t, Config{Dir: dir})
	c := NewClient(s.Addr())
	var res [2]*cxlmc.Result
	for i, id := range []string{"j-000001", "j-000002"} {
		fin, err := c.Wait(ctxT(t, 30*time.Second), id, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != StateDone || fin.Result == nil || !fin.Result.Complete {
			t.Fatalf("%s: state %s (%s), result %+v: want done and complete", id, fin.State, fin.Error, fin.Result)
		}
		res[i] = fin.Result
	}
	if res[0].Counters != res[1].Counters || !equalSets(bugSet(res[0].Bugs), bugSet(res[1].Bugs)) {
		t.Fatalf("with prefix_fork %+v %v, without %+v %v",
			res[1].Counters, bugSet(res[1].Bugs), res[0].Counters, bugSet(res[0].Bugs))
	}
}

// TestParentJournalDegradedResumes: a journal the parent compacted while its
// memory governor had paused a job holds the job as one "degraded" line,
// next to a checkpoint carrying "degraded": true. The job is read — and
// re-journaled — as running, resumes from that checkpoint, and finishes with
// the serial control's executions and bug set.
func TestParentJournalDegradedResumes(t *testing.T) {
	dir := t.TempDir()
	sp := fastSpec("a")
	program, err := sp.Program()
	if err != nil {
		t.Fatal(err)
	}
	control, err := cxlmc.Run(sp.Config(cxlmc.Config{Workers: 1}), program)
	if err != nil {
		t.Fatal(err)
	}
	cut := sp.Config(cxlmc.Config{Workers: 1})
	cut.CheckpointPath = (&store{dir: dir}).checkpointPath("j-000001")
	cut.MaxExecutions = control.Executions / 2
	if _, err := cxlmc.Run(cut, program); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cut.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Replace(raw, []byte(`{`), []byte(`{"degraded":true,`), 1)
	if err := os.WriteFile(cut.CheckpointPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	then := time.Now().UTC().Add(-time.Minute)
	// Older servers also wrote a retries field, which recovery ignores.
	line := strings.Replace(mustLine(t, record{ID: "j-000001", Tenant: "a", State: "degraded", Spec: &sp,
		Error: "governor stopped the run at 12 executions to hold its budget", Time: then, Submitted: &then, Started: &then}),
		`{`, `{"retries":1,`, 1)
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}

	s := testServer(t, Config{Dir: dir})
	if recs := journalRecords(t, dir); recs[0].State != StateRunning {
		t.Fatalf("the parent's degraded line was compacted as %q, want running", recs[0].State)
	}
	fin, err := NewClient(s.Addr()).Wait(ctxT(t, 30*time.Second), "j-000001", 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Result == nil || !fin.Result.Resumed || !fin.Result.Complete {
		t.Fatalf("state %s (%s), result %+v: want done, resumed and complete", fin.State, fin.Error, fin.Result)
	}
	if fin.Result.Executions != control.Executions || !equalSets(bugSet(fin.Result.Bugs), bugSet(control.Bugs)) {
		t.Fatalf("resumed to %d executions and %v, control %d and %v",
			fin.Result.Executions, bugSet(fin.Result.Bugs), control.Executions, bugSet(control.Bugs))
	}
	if got := s.Registry().Snapshot()["cxlmc_jobs_resumed"]; got != 1 {
		t.Fatalf("resumed = %v, want 1", got)
	}
}

// Drain refuses new submissions, lets queued and running jobs persist,
// and a restarted server finishes them.
func TestDrainAndRestart(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{Dir: dir, PoolWorkers: 1})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 60*time.Second)

	slow := Spec{
		Tenant: "a", Bench: "P-BwTree", Keys: 10, InsertWorkers: 2,
		Bugs: 1, Seed: 1, ContinueAfterBug: true, Reduction: cxlmc.SwitchOff,
	}
	j1, err := c.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(ctx, fastSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Let j1 start, then drain.
	var started time.Time
	for {
		st, err := c.Status(ctx, j1.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			started = st.Started
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Drain(ctxT(t, 30*time.Second)); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Submissions after drain are refused (the listener is down or
	// answering 503; either way the submit fails).
	if _, err := c.Submit(ctxT(t, time.Second), fastSpec("a")); err == nil {
		t.Fatal("submit after drain succeeded")
	}

	// Restart on the same dir: both jobs must reach done, j1 resuming
	// from its drain checkpoint rather than starting over.
	s2 := testServer(t, Config{Dir: dir, PoolWorkers: 2})
	c2 := NewClient(s2.Addr())
	final := make(map[string]Status)
	for _, sub := range []Status{j1, j2} {
		fin, err := c2.Wait(ctx, sub.ID, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s after restart: %v", sub.ID, err)
		}
		if fin.State != StateDone {
			t.Fatalf("%s after restart: %s (%s), want done", sub.ID, fin.State, fin.Error)
		}
		// A job's times are the job's, not the process's.
		if !fin.Submitted.Equal(sub.Submitted) {
			t.Errorf("%s: submitted %v after the restart, %v before", sub.ID, fin.Submitted, sub.Submitted)
		}
		final[sub.ID] = fin
	}
	if got := final[j1.ID].Started; !got.Equal(started) {
		t.Errorf("%s: started %v after the restart, %v before (its first run)", j1.ID, got, started)
	}
	// A clean drain needs no crash recovery: the running job was
	// journaled back to queued with its checkpoint on disk, so the
	// resumed (crash-adoption) counter stays at zero.
	snap := s2.Registry().Snapshot()
	if snap["cxlmc_jobs_resumed"] != 0 {
		t.Fatalf("resumed = %v, want 0 after a graceful drain", snap["cxlmc_jobs_resumed"])
	}
	if snap["cxlmc_jobs_done"] != 2 {
		t.Fatalf("done = %v, want 2", snap["cxlmc_jobs_done"])
	}

	// And once more, over a compacted journal holding only finished jobs.
	if err := s2.Drain(ctxT(t, 30*time.Second)); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	c3 := NewClient(testServer(t, Config{Dir: dir}).Addr())
	for id, want := range final {
		got, err := c3.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Submitted.Equal(want.Submitted) || !got.Started.Equal(want.Started) || !got.Finished.Equal(want.Finished) {
			t.Errorf("%s after a second restart: submitted/started/finished %v / %v / %v, want %v / %v / %v", id,
				got.Submitted, got.Started, got.Finished, want.Submitted, want.Started, want.Finished)
		}
	}
}

// /statusz and /metrics stay wired through the jobs routes.
func TestObsEndpointsAlive(t *testing.T) {
	s := testServer(t, Config{})
	for _, path := range []string{"/metrics", "/statusz"} {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + s.Addr() + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", resp.StatusCode)
	}
}

// Generated-recipe jobs work end to end through the API.
func TestGeneratedProgramJob(t *testing.T) {
	s := testServer(t, Config{})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 60*time.Second)

	st, err := c.Submit(ctx, Spec{
		Tenant: "gen", Gen: &GenSpec{Seed: 3}, Seed: 1, MaxExecutions: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Result == nil || fin.Result.Executions == 0 {
		t.Fatal("generated job explored nothing")
	}
}
