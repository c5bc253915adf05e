package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
)

// This file tests the observability wiring: the registry on a real parallel
// run under chaos, the structured event trace, progress snapshots, and — the
// regression the subsystem fixed — cumulative Stats counters surviving a
// checkpoint/resume cycle.

// TestMetricsEqualResultUnderChaos runs parallel, chaos-stalled
// explorations into a registry and checks the registry agrees exactly with
// the Results — metrics are the runs, not an approximation of them — while
// the injectors do inject faults. Alone in its registry a run's counters are
// its Result; two runs sharing one registry (as a job server's pool does)
// leave the sums over both, and no gauge, which would hold whichever run
// wrote last.
func TestMetricsEqualResultUnderChaos(t *testing.T) {
	want := referenceRun(t, resilientNoisy)
	explore := func(reg *obs.Registry, workers int, seed int64) (*Result, error) {
		inj := chaos.New(chaos.Config{StallPct: 50, StallDur: time.Millisecond, Seed: seed, MaxFaults: 100})
		res, err := Run(Config{
			Workers:          workers,
			ContinueAfterBug: true,
			Obs:              reg,
			Chaos:            inj,
		}, resilientNoisy)
		if err == nil && inj.Stats().Total() == 0 {
			err = errors.New("the injector injected no fault")
		}
		return res, err
	}

	t.Run("one-run", func(t *testing.T) {
		reg := obs.NewRegistry()
		res, err := explore(reg, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		registryHoldsSums(t, reg, res)
		// And the instrumented run explored exactly the reference state space.
		sameExploration(t, "instrumented", res, want)
	})

	t.Run("shared-registry", func(t *testing.T) {
		reg := obs.NewRegistry()
		workers := []int{2, 1}
		results := make([]*Result, len(workers))
		errs := make([]error, len(workers))
		var wg sync.WaitGroup
		for i, n := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = explore(reg, n, int64(7+i))
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d: %v", workers[i], err)
			}
			sameExploration(t, fmt.Sprintf("workers=%d", workers[i]), results[i], want)
		}
		registryHoldsSums(t, reg, results...)
	})
}

// registryHoldsSums checks that reg's counters are the sums of what the
// runs that shared it returned, and that it exposes no gauge.
func registryHoldsSums(t *testing.T, reg *obs.Registry, results ...*Result) {
	t.Helper()
	var sum Result
	for _, res := range results {
		sum.Executions += res.Executions
		sum.Steps += res.Steps
		sum.FailurePoints += res.FailurePoints
		sum.ReadFromPoints += res.ReadFromPoints
		sum.Bugs = append(sum.Bugs, res.Bugs...)
	}
	snap := reg.Snapshot()
	if got := int(snap["cxlmc_executions_total"]); got != sum.Executions {
		t.Fatalf("cxlmc_executions_total=%d, Result.Executions summed=%d", got, sum.Executions)
	}
	if got := int64(snap["cxlmc_steps_total"]); got != sum.Steps {
		t.Fatalf("cxlmc_steps_total=%d, Result.Steps summed=%d", got, sum.Steps)
	}
	if got := int(snap["cxlmc_bugs_total"]); got != len(sum.Bugs) {
		t.Fatalf("cxlmc_bugs_total=%d, len(Bugs) summed=%d", got, len(sum.Bugs))
	}
	if int(snap["cxlmc_decisions_failure_total"]) != sum.FailurePoints ||
		int(snap["cxlmc_decisions_read_from_total"]) != sum.ReadFromPoints {
		t.Fatalf("decision counters disagree with stats: %v vs %+v summed", snap, sum.Stats)
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE cxlmc_") && strings.HasSuffix(line, " gauge") {
			t.Errorf("the engine exposes a gauge, which runs sharing the registry overwrite: %q", line)
		}
	}
}

// TestEventTraceStructure runs with a JSONL event sink, serially with a
// registry and with two workers whose rings overflow into one sink and no
// registry, and checks the stream is well-formed and consistent with the
// result: every execution has a start and an end, each distinct bug
// appears, there is one decision event per decision point created (none for
// a replayed one, none for a donated unit's prefix), and one backtrack event
// per execution that was not its unit's last — every claimed unit (a steal
// event) runs to exhaustion in a complete run. Serially that is one unit,
// so one backtrack per execution after the first, as many as the backtrack
// metric counts.
func TestEventTraceStructure(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var buf bytes.Buffer
			var reg *obs.Registry
			if workers == 1 {
				reg = obs.NewRegistry()
			}
			cfg := Config{ContinueAfterBug: true, Workers: workers, Obs: reg}
			cfg.fillDefaults()
			digest, err := programDigestOf(cfg, resilientBuggy)
			if err != nil {
				t.Fatal(err)
			}
			// An 8-event ring instead of Config.EventTrace's eventBufferSize,
			// so the rings overflow into the sink many times mid-run.
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
			if counts["bug"] != len(res.Bugs) {
				t.Fatalf("trace has %d bug events for %d distinct bugs", counts["bug"], len(res.Bugs))
			}
			if !res.Complete || res.Executions < 2 {
				t.Fatalf("want a complete run of several executions, got %+v", res.Stats)
			}
			if want := res.FailurePoints + res.ReadFromPoints + res.PoisonPoints; counts["decision"] != want {
				t.Fatalf("trace has %d decision events for %d decision points", counts["decision"], want)
			}
			units := counts["steal"]
			if workers == 1 && units != 1 {
				t.Fatalf("a serial run claimed %d units, want 1", units)
			}
			if counts["backtrack"] != res.Executions-units {
				t.Fatalf("trace has %d backtrack events for %d executions in %d units",
					counts["backtrack"], res.Executions, units)
			}
			if reg != nil {
				if got := int(reg.Snapshot()["cxlmc_backtracks_total"]); got != counts["backtrack"] {
					t.Fatalf("cxlmc_backtracks_total=%d, trace has %d backtrack events", got, counts["backtrack"])
				}
			}
			t.Logf("%d executions in %d units", res.Executions, units)
		})
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

// TestStatusRequestsAndFinalProgress: what a caller answers a status
// request from (cmd/cxlmc's /statusz and SIGUSR1) is the last snapshot
// OnProgress got, so the engine must deliver snapshots mid-run, every
// reportPeriod, and always one final snapshot whose numbers match the
// Result. Chaos stalls stretch the run well past one period.
func TestStatusRequestsAndFinalProgress(t *testing.T) {
	var calls atomic.Int32
	var last atomic.Value
	inj := chaos.New(chaos.Config{StallPct: 100, StallDur: 100 * time.Millisecond, Seed: 3, MaxFaults: 50})
	res, err := Run(Config{
		Workers:          1,
		ContinueAfterBug: true,
		Chaos:            inj,
		OnProgress: func(p Progress) {
			calls.Add(1)
			last.Store(p)
		},
	}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < 2*reportPeriod {
		t.Fatalf("the run took %v, too short to span a report period", res.Elapsed)
	}
	if calls.Load() < 2 {
		t.Fatalf("OnProgress called %d times, want a periodic snapshot plus the final one", calls.Load())
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

// TestFinalProgressAlwaysEmitted: a run shorter than one report period
// still hands OnProgress the final snapshot, and the last snapshot is the
// Result's numbers.
func TestFinalProgressAlwaysEmitted(t *testing.T) {
	var calls int
	var final Progress
	res, err := Run(Config{OnProgress: func(p Progress) { calls++; final = p }}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < reportPeriod && calls != 1 {
		t.Fatalf("OnProgress called %d times in a %v run, want exactly the final snapshot", calls, res.Elapsed)
	}
	if calls == 0 {
		t.Fatal("OnProgress never called, want the final snapshot")
	}
	if final.Executions != res.Executions {
		t.Fatalf("final snapshot has %d executions, run did %d", final.Executions, res.Executions)
	}
}

// TestResumeCarriesCumulativeStats is the regression test for the
// checkpoint fix: what a parallel run counted and how long it took before
// an interruption must still be in the resumed run's Stats, not silently
// reset.
func TestResumeCarriesCumulativeStats(t *testing.T) {
	want := referenceRun(t, resilientNoisy)
	path := cpPath(t)
	leg1, err := Run(Config{
		Workers:          2,
		ContinueAfterBug: true,
		MaxExecutions:    want.Executions / 2,
		CheckpointPath:   path,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if leg1.Complete || leg1.Executions == 0 {
		t.Fatalf("leg 1: complete=%v after %d executions; the cut did not bite", leg1.Complete, leg1.Executions)
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
	if resumed.Elapsed < leg1.Elapsed {
		t.Fatalf("resumed Elapsed %v < leg 1's %v: time reset across resume", resumed.Elapsed, leg1.Elapsed)
	}
	sameExploration(t, "cut-then-resumed", resumed, want)
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
