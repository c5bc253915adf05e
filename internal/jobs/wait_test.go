package jobs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cxlmc "repro"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/recipe"
)

// slowSpec is a P-BwTree exploration of a few thousand executions: long
// enough to be caught mid-run.
func slowSpec(tenant string) Spec {
	return Spec{
		Tenant: tenant, Bench: "P-BwTree", Keys: 10, InsertWorkers: 2,
		Bugs: 1, Seed: 1, ContinueAfterBug: true, Reduction: cxlmc.SwitchOff,
	}
}

// tap stands between a client and the job server at addr and counts the
// requests that pass. cut (when non-nil) is asked once a request has been
// delivered and answered: true drops the connection instead of relaying the
// answer — the request left, and its fate is unknown to the client. It returns
// the address the client should be given.
func tap(t *testing.T, addr string, cut func(*http.Request) bool) (string, *atomic.Int32) {
	t.Helper()
	var seen atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		body, _ := io.ReadAll(r.Body)
		req, _ := http.NewRequestWithContext(r.Context(), r.Method, "http://"+addr+r.URL.RequestURI(), bytes.NewReader(body))
		req.Header = r.Header.Clone()
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer res.Body.Close()
		raw, _ := io.ReadAll(res.Body)
		if cut != nil && cut(r) {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		for k, v := range res.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(res.StatusCode)
		w.Write(raw)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, &seen
}

// untilRunning polls the job until the engine has made real progress on it.
func untilRunning(t *testing.T, c *Client, id string, execs int) {
	t.Helper()
	ctx := ctxT(t, 30*time.Second)
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			t.Fatalf("%s ended %s before it was caught running; enlarge the workload", id, st.State)
		}
		if st.State == StateRunning && st.Progress != nil && st.Progress.Executions >= execs {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWaitParksUntilTerminal: waiting is one request parked at the server and
// answered when the job finishes — not a status request every poll interval,
// and not an answer up to an interval late.
func TestWaitParksUntilTerminal(t *testing.T) {
	s := testServer(t, Config{PoolWorkers: 1})
	direct := NewClient(s.Addr())
	ctx := ctxT(t, 60*time.Second)
	if _, err := direct.Submit(ctx, slowSpec("a")); err != nil {
		t.Fatal(err)
	}
	queued, err := direct.Submit(ctx, fastSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	via, requests := tap(t, s.Addr(), nil)
	fin, err := NewClient(via).Wait(ctx, queued.ID, 0)
	lag := time.Since(fin.Finished)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Result == nil || len(fin.Result.Bugs) == 0 {
		t.Fatalf("state %s (%s), result %+v: want done with the full record", fin.State, fin.Error, fin.Result)
	}
	if fin.Finished.Sub(fin.Submitted) < 20*time.Millisecond {
		t.Fatalf("the job took %v from submission: it never waited behind the slow one", fin.Finished.Sub(fin.Submitted))
	}
	if n := requests.Load(); n > 2 {
		t.Fatalf("Wait made %d requests for a job that finished inside one park", n)
	}
	if lag > 100*time.Millisecond {
		t.Fatalf("Wait returned %v after the job finished", lag)
	}

	// A park is bounded by what the caller allows, and answers what there is.
	slow, err := direct.Submit(ctx, slowSpec("b"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/jobs/" + slow.ID + "?wait=30ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a wait that ran out was answered %d", resp.StatusCode)
	}
	// What cannot be waited for is refused, and Wait does not ask again.
	resp, err = http.Get("http://" + s.Addr() + "/jobs/" + slow.ID + "?wait=soon")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wait=soon was answered %d, want 400", resp.StatusCode)
	}
	before := requests.Load()
	if _, err := NewClient(via).Wait(ctx, "j-999999", 0); !obs.IsRejected(err) || !strings.Contains(err.Error(), "404") {
		t.Fatalf("waiting for a job that does not exist: %v, want the 404", err)
	}
	if n := requests.Load() - before; n != 1 {
		t.Fatalf("a 404 was asked for %d times", n)
	}
}

// TestWaitRidesThroughRestart: a Wait in flight when the server is killed is
// the same Wait that returns the job's result from its successor on the same
// directory and address — the client's recovery is the same request, sent
// again.
func TestWaitRidesThroughRestart(t *testing.T) {
	sp := slowSpec("a")
	program, _ := harness.ProgramByName(sp.Bench, recipe.Config{
		Keys: sp.Keys, Workers: sp.InsertWorkers, Bugs: recipe.Bug(sp.Bugs),
	})
	control, err := cxlmc.Run(cxlmc.Config{
		Seed: sp.Seed, Workers: 1, ContinueAfterBug: true, Reduction: sp.Reduction,
	}, program)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Addr: "127.0.0.1:0", Dir: t.TempDir(), PoolWorkers: 1,
		Base: cxlmc.Config{
			CheckpointEvery: 25, CheckpointInterval: 50 * time.Millisecond,
			ProgressEvery: 10 * time.Millisecond,
		},
	}
	s1, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Addr = s1.Addr()
	c := NewClient(cfg.Addr)
	ctx := ctxT(t, 120*time.Second)
	st, err := c.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		st  Status
		err error
	}
	waited := make(chan outcome, 1)
	go func() {
		fin, err := c.Wait(ctx, st.ID, 0)
		waited <- outcome{fin, err}
	}()
	untilRunning(t, c, st.ID, 100)
	s1.crash()
	select {
	case o := <-waited:
		t.Fatalf("Wait returned (%s, %v) from a server that was killed mid-run", o.st.State, o.err)
	case <-time.After(150 * time.Millisecond): // nobody home: the client is retrying
	}

	s2, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart on %s: %v", cfg.Addr, err)
	}
	defer s2.Close()
	o := <-waited
	if o.err != nil {
		t.Fatalf("Wait across the restart: %v", o.err)
	}
	fin := o.st
	if fin.State != StateDone || fin.Result == nil || !fin.Result.Complete {
		t.Fatalf("state %s (%s), result %+v: want done and complete", fin.State, fin.Error, fin.Result)
	}
	if fin.Result.Executions != control.Executions {
		t.Errorf("executions %d across the restart, control %d", fin.Result.Executions, control.Executions)
	}
	if got, want := bugSet(fin.Result.Bugs), bugSet(control.Bugs); !equalSets(got, want) {
		t.Errorf("bug set diverged across the restart\n got: %v\nwant: %v", got, want)
	}
	if s2.Registry().Snapshot()["cxlmc_jobs_resumed"] != 1 {
		t.Errorf("resumed = %v, want 1", s2.Registry().Snapshot()["cxlmc_jobs_resumed"])
	}
}

// TestDrainWakesParkedWaits: a parked request does not hold a draining
// server's listener open for the length of its park, and is answered — with
// the state the job is in — rather than cut.
func TestDrainWakesParkedWaits(t *testing.T) {
	s := testServer(t, Config{PoolWorkers: 1})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 60*time.Second)
	st, err := c.Submit(ctx, slowSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	untilRunning(t, c, st.ID, 1)

	via, requests := tap(t, s.Addr(), nil)
	type outcome struct {
		code int
		body string
		err  error
	}
	parked := make(chan outcome, 1)
	go func() {
		resp, err := http.Get(via + "/jobs/" + st.ID + "?wait=25s")
		if err != nil {
			parked <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		parked <- outcome{code: resp.StatusCode, body: string(raw)}
	}()
	for requests.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // through the tap and into its park

	start := time.Now()
	if err := s.Drain(ctxT(t, 20*time.Second)); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// (Well under the park, and over the five seconds net/http's Shutdown can
	// spend on a connection dialled and never used.)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("Drain took %v with a 25s wait parked", d)
	}
	o := <-parked
	if o.err != nil || o.code != http.StatusOK {
		t.Fatalf("the parked wait was answered (%d, %v), want a 200", o.code, o.err)
	}
	if strings.Contains(o.body, `"state": "done"`) || !strings.Contains(o.body, `"id": "`+st.ID+`"`) {
		t.Fatalf("the parked wait was answered %s, want the job short of terminal", o.body)
	}
}

// TestSubmitIsAtMostOnce: a submission whose answer is lost after the request
// was delivered is an error to the caller and one job at the server — never a
// second POST, which would be a second job.
func TestSubmitIsAtMostOnce(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Config{Dir: dir})
	via, requests := tap(t, s.Addr(), func(r *http.Request) bool { return r.Method == http.MethodPost })
	st, err := NewClient(via).Submit(ctxT(t, 10*time.Second), fastSpec("a"))
	if err == nil {
		t.Fatalf("Submit over a connection cut after delivery returned %s and no error", st.ID)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("the submission was sent %d times", n)
	}
	// The one job it did create is there, and runs.
	fin, err := NewClient(s.Addr()).Wait(ctxT(t, 30*time.Second), "j-000001", 0)
	if err != nil || fin.State != StateDone {
		t.Fatalf("the delivered submission: %s, %v", fin.State, err)
	}
	s.Close()
	ids := make(map[string]bool)
	for _, rec := range journalRecords(t, dir) {
		ids[rec.ID] = true
	}
	if len(ids) != 1 {
		t.Fatalf("journal holds %d jobs, want the one delivered: %v", len(ids), ids)
	}
}

// TestListStaysReadable: a listing is summaries. With the results embedded it
// grew by a kilobyte and more per finished job, past what its reader would
// read, and `cxlmc jobs` failed from about the 700th job on.
func TestListStaysReadable(t *testing.T) {
	s := testServer(t, Config{PoolWorkers: 2, QueueDepth: 512})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 120*time.Second)
	const n = 300
	ids := make([]string, n)
	for i := range ids {
		st, err := c.Submit(ctx, fastSpec(fmt.Sprintf("t%d", i%3)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	size := func(path string) int {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return len(raw)
	}
	full := 0
	for _, id := range ids {
		fin, err := c.Wait(ctx, id, 0)
		if err != nil || fin.State != StateDone || fin.Result == nil || len(fin.Result.Bugs) == 0 {
			t.Fatalf("%s: %s, %v, result %+v", id, fin.State, err, fin.Result)
		}
		full += size("/jobs/" + id)
	}
	list, err := c.List(ctx, "")
	if err != nil {
		t.Fatalf("List of %d finished jobs: %v", n, err)
	}
	if len(list) != n {
		t.Fatalf("List returned %d jobs, want %d", len(list), n)
	}
	for _, st := range list {
		if st.State != StateDone || st.Result != nil || st.Progress != nil || st.Spec != nil || st.Finished.IsZero() {
			t.Fatalf("list entry %+v: want a done summary with its times and no spec, progress or result", st)
		}
	}
	if one, err := c.List(ctx, "t1"); err != nil || len(one) != n/3 {
		t.Fatalf("List of one tenant: %d jobs, %v, want %d", len(one), err, n/3)
	}
	if listed := size("/jobs"); listed*4 > full {
		t.Fatalf("the listing is %d bytes against %d for the %d full records: it should be a small fraction", listed, full, n)
	}
}
