package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// This file tests the observability wiring: the live status server on a
// real parallel governed run under chaos, the structured event trace,
// on-demand status requests, and — the regression the subsystem fixed —
// cumulative Stats counters surviving a checkpoint/resume cycle.

func httpBody(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}

// TestStatusServerServesLiveRun scrapes /metrics and /statusz while a
// parallel, governed, chaos-stalled exploration is actually running,
// and afterwards checks the registry agrees exactly with the Result —
// metrics are the run, not an approximation of it.
func TestStatusServerServesLiveRun(t *testing.T) {
	want := referenceRun(t, resilientNoisy)

	reg := obs.NewRegistry()
	inj := chaos.New(chaos.Config{StallPct: 50, StallDur: time.Millisecond, Seed: 7, MaxFaults: 100})
	var addr string
	var scraped atomic.Bool
	var metricsBody, statusBody string
	cfg := Config{
		Workers:          2,
		ContinueAfterBug: true,
		Obs:              reg,
		MetricsAddr:      "127.0.0.1:0",
		OnStatusServer:   func(a string) { addr = a },
		Chaos:            inj,
		MemBudgetBytes:   16 << 30,
		GovernorEvery:    1,
		ProgressEvery:    time.Millisecond,
		OnProgress: func(p Progress) {
			// Scrape exactly once, the first time real work is visible.
			// The engine guarantees a final OnProgress before the server
			// closes, so this always fires at least once.
			if p.Executions == 0 || !scraped.CompareAndSwap(false, true) {
				return
			}
			metricsBody = httpBody(t, "http://"+addr+"/metrics")
			statusBody = httpBody(t, "http://"+addr+"/statusz")
		},
	}
	res, err := Run(cfg, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !scraped.Load() {
		t.Fatal("no OnProgress with executions > 0 was ever delivered")
	}
	if !strings.Contains(metricsBody, "cxlmc_workers 2") ||
		!strings.Contains(metricsBody, "cxlmc_executions_total") ||
		!strings.Contains(metricsBody, "# TYPE cxlmc_exec_steps histogram") {
		t.Fatalf("/metrics scrape missing core series:\n%s", metricsBody)
	}
	var p Progress
	if err := json.Unmarshal([]byte(statusBody), &p); err != nil {
		t.Fatalf("/statusz is not JSON: %v\n%s", err, statusBody)
	}
	if p.Executions == 0 || len(p.Workers) != 2 {
		t.Fatalf("/statusz not live: executions=%d workers=%d", p.Executions, len(p.Workers))
	}

	// The server must be gone once Run returns.
	if _, err := (&http.Client{Timeout: time.Second}).Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("status server still serving after Run returned")
	}

	// Registry ⇔ Result parity, and chaos faults really were counted.
	snap := reg.Snapshot()
	if got := int(snap["cxlmc_executions_total"]); got != res.Executions {
		t.Fatalf("cxlmc_executions_total=%d, Result.Executions=%d", got, res.Executions)
	}
	if got := int64(snap["cxlmc_steps_total"]); got != res.Steps {
		t.Fatalf("cxlmc_steps_total=%d, Result.Steps=%d", got, res.Steps)
	}
	if got := int(snap["cxlmc_bugs_total"]); got != len(res.Bugs) {
		t.Fatalf("cxlmc_bugs_total=%d, len(Bugs)=%d", got, len(res.Bugs))
	}
	if got, want := int(snap["cxlmc_chaos_faults_total"]), inj.Stats().Total(); got != want {
		t.Fatalf("cxlmc_chaos_faults_total=%d, injector says %d", got, want)
	}
	if int(snap["cxlmc_decisions_failure_total"]) != res.FailurePoints ||
		int(snap["cxlmc_decisions_read_from_total"]) != res.ReadFromPoints {
		t.Fatalf("decision counters disagree with stats: %v vs %+v", snap, res.Stats)
	}

	// And the instrumented run explored exactly the reference state space.
	sameExploration(t, "instrumented", res, want)
}

// TestEventTraceStructure runs with a JSONL event sink and checks the
// stream is well-formed and consistent with the result: every execution
// has a start and an end, decisions and backtracks were seen, and each
// distinct bug appears.
func TestEventTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{ContinueAfterBug: true}
	cfg.fillDefaults()
	digest, err := programDigestOf(cfg, resilientBuggy)
	if err != nil {
		t.Fatal(err)
	}
	// An 8-event ring instead of Config.EventTrace's eventBufferSize, so
	// the rings overflow into the sink many times mid-run.
	e := newEngine(cfg, resilientBuggy, digest)
	e.tracer = obs.NewTracer(cfg.Workers, 8, &buf)
	_, res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			W  int    `json:"w"`
			Ev string `json:"ev"`
			A  int64  `json:"a"`
			S  string `json:"s"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		counts[ev.Ev]++
	}
	if counts["exec-start"] != res.Executions || counts["exec-end"] != res.Executions {
		t.Fatalf("trace has %d starts / %d ends for %d executions",
			counts["exec-start"], counts["exec-end"], res.Executions)
	}
	if counts["decision"] == 0 || counts["backtrack"] == 0 {
		t.Fatalf("trace missing structure events: %v", counts)
	}
	if counts["bug"] != len(res.Bugs) {
		t.Fatalf("trace has %d bug events for %d distinct bugs", counts["bug"], len(res.Bugs))
	}
}

// TestEventTraceKeepsParallelism: tracing must not silently serialize
// the run (unlike Config.Observer) — a traced 4-worker run explores the
// same state space as the untraced reference.
func TestEventTraceKeepsParallelism(t *testing.T) {
	want := referenceRun(t, resilientNoisy)
	res, err := Run(Config{
		Workers:          4,
		ContinueAfterBug: true,
		EventTrace:       io.Discard,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	sameExploration(t, "traced-parallel", res, want)
}

// TestStatusRequestsAndFinalProgress: a pre-queued status request must
// produce an on-demand Progress snapshot mid-run, and the engine must
// always deliver one final snapshot whose numbers match the Result.
func TestStatusRequestsAndFinalProgress(t *testing.T) {
	req := make(chan struct{}, 1)
	req <- struct{}{} // queued before the run starts: served mid-run
	var calls atomic.Int32
	var last atomic.Value
	inj := chaos.New(chaos.Config{StallPct: 100, StallDur: 2 * time.Millisecond, Seed: 3, MaxFaults: 50})
	res, err := Run(Config{
		ContinueAfterBug: true,
		Chaos:            inj,
		StatusRequests:   req,
		OnProgress: func(p Progress) {
			calls.Add(1)
			last.Store(p)
		},
	}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() < 2 {
		t.Fatalf("OnProgress called %d times, want the on-demand snapshot plus the final one", calls.Load())
	}
	final := last.Load().(Progress)
	if final.Executions != res.Executions || final.Bugs != len(res.Bugs) {
		t.Fatalf("final Progress %+v disagrees with Result (%d execs, %d bugs)",
			final, res.Executions, len(res.Bugs))
	}
	if final.Frontier != 0 {
		t.Fatalf("final Progress still has frontier %d on a complete run", final.Frontier)
	}
}

// TestFinalProgressAlwaysEmitted: OnProgress alone — no server, no
// cadence, no requests — still gets exactly one final snapshot.
func TestFinalProgressAlwaysEmitted(t *testing.T) {
	var calls int
	var final Progress
	res, err := Run(Config{OnProgress: func(p Progress) { calls++; final = p }}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("OnProgress called %d times, want exactly the final snapshot", calls)
	}
	if final.Executions != res.Executions {
		t.Fatalf("final snapshot has %d executions, run did %d", final.Executions, res.Executions)
	}
}

// TestBadMetricsAddrFailsRun: an unbindable address must fail the run
// up front, not after hours of exploration.
func TestBadMetricsAddrFailsRun(t *testing.T) {
	_, err := Run(Config{MetricsAddr: "256.256.256.256:1"}, resilientClean)
	if err == nil {
		t.Fatal("unbindable MetricsAddr did not fail the run")
	}
}

// TestResumeCarriesCumulativeStats is the regression test for the
// checkpoint fix: Degraded observed before an interruption must still be
// visible on the resumed run's Stats, not silently reset.
func TestResumeCarriesCumulativeStats(t *testing.T) {
	path := cpPath(t)
	leg1, err := Run(Config{
		Workers:          2,
		ContinueAfterBug: true,
		MemBudgetBytes:   1, // forces full escalation and a degraded stop
		GovernorEvery:    1,
		CheckpointPath:   path,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !leg1.Degraded || leg1.Complete {
		t.Fatalf("leg 1: degraded=%v complete=%v under a 1-byte budget", leg1.Degraded, leg1.Complete)
	}

	resumed, err := Run(Config{
		Workers:          2,
		ContinueAfterBug: true,
		CheckpointPath:   path,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || !resumed.Complete {
		t.Fatalf("resumed=%v complete=%v", resumed.Resumed, resumed.Complete)
	}
	if !resumed.Degraded {
		t.Fatal("Degraded from leg 1 was lost across resume")
	}
}

// TestResumeCarriesCheckpointErrors: checkpoint write failures suffered
// before an interruption stay in the cumulative count after resuming.
func TestResumeCarriesCheckpointErrors(t *testing.T) {
	path := cpPath(t)
	inj := chaos.New(chaos.Config{
		WriteErrPct: 100,
		MaxFaults:   1, // exactly one write fails...
		Permanent:   errors.New("disk gone"),
		Seed:        11,
	})
	leg1, err := Run(Config{
		ContinueAfterBug: true,
		CheckpointPath:   path,
		CheckpointEvery:  1,
		MaxExecutions:    3,
		Chaos:            inj,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if leg1.CheckpointErrors == 0 {
		t.Fatal("permanent write fault did not register a checkpoint error")
	}
	if leg1.Complete {
		t.Fatal("leg 1 unexpectedly complete; cut did not bite")
	}

	resumed, err := Run(Config{
		ContinueAfterBug: true,
		CheckpointPath:   path,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || !resumed.Complete {
		t.Fatalf("resumed=%v complete=%v", resumed.Resumed, resumed.Complete)
	}
	if resumed.CheckpointErrors < leg1.CheckpointErrors {
		t.Fatalf("resumed CheckpointErrors=%d < leg 1's %d: counter reset across resume",
			resumed.CheckpointErrors, leg1.CheckpointErrors)
	}
}

// TestResumeCarriesQuarantined: the quarantine flag raised when a
// corrupt checkpoint was found survives later resumes of the fresh run.
func TestResumeCarriesQuarantined(t *testing.T) {
	path := cpPath(t)
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	leg1, err := Run(Config{
		ContinueAfterBug: true,
		CheckpointPath:   path,
		MaxExecutions:    2,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !leg1.Quarantined {
		t.Fatal("corrupt checkpoint not reported as quarantined")
	}
	if leg1.Complete {
		t.Fatal("leg 1 unexpectedly complete; cut did not bite")
	}

	resumed, err := Run(Config{
		ContinueAfterBug: true,
		CheckpointPath:   path,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || !resumed.Complete {
		t.Fatalf("resumed=%v complete=%v", resumed.Resumed, resumed.Complete)
	}
	if !resumed.Quarantined {
		t.Fatal("Quarantined flag lost across resume")
	}
}
