package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/decision"
	"repro/internal/sched"
)

// Test programs for the resilience suite. resilientClean fully explores
// without bugs; resilientBuggy misses the data flush (the canonical
// crash-consistency bug); resilientNoisy adds an unrelated machine whose
// failures the bug does not need — fodder for token minimization.

func resilientClean(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	data := p.Alloc(8)
	flag := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		th.Store64(data, 42)
		th.CLFlush(data)
		th.SFence()
		th.Store64(flag, 1)
		th.CLFlush(flag)
		th.SFence()
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		if th.Load64(flag) == 1 {
			th.Assert(th.Load64(data) == 42, "lost data")
		}
	})
}

func resilientBuggy(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	data := p.Alloc(8)
	flag := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		th.Store64(data, 42)
		th.Store64(flag, 1)
		th.CLFlush(flag)
		th.SFence()
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		if th.Load64(flag) == 1 {
			th.Assert(th.Load64(data) == 42, "lost data")
		}
	})
}

func resilientNoisy(p *Program) {
	a := p.NewMachine("A")
	c := p.NewMachine("C")
	b := p.NewMachine("B")
	data := p.Alloc(8)
	flag := p.AllocAligned(8, 64)
	other := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		th.Store64(data, 42)
		th.Store64(flag, 1)
		th.CLFlush(flag)
		th.SFence()
	})
	c.Thread("noise", func(th *Thread) {
		th.Store64(other, 7)
		th.CLFlush(other)
		th.SFence()
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		th.Join(c)
		if th.Load64(flag) == 1 {
			th.Assert(th.Load64(data) == 42, "lost data")
		}
	})
}

func cpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ck.json")
}

// TestCheckpointRoundTripClean is the round-trip property on a clean
// program: interrupting after k executions and resuming must explore
// exactly what one uninterrupted run explores.
func TestCheckpointRoundTripClean(t *testing.T) {
	full, err := Run(Config{}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if full.Buggy() || !full.Complete {
		t.Fatalf("reference run: bugs=%v complete=%v", full.Bugs, full.Complete)
	}
	if full.Executions < 4 {
		t.Fatalf("state space too small (%d executions) for an interesting cut", full.Executions)
	}

	for cut := 1; cut < full.Executions; cut++ {
		path := cpPath(t)
		leg1, err := Run(Config{CheckpointPath: path, MaxExecutions: cut}, resilientClean)
		if err != nil {
			t.Fatalf("cut %d leg 1: %v", cut, err)
		}
		if leg1.Complete || leg1.Executions != cut {
			t.Fatalf("cut %d leg 1: executions=%d complete=%v", cut, leg1.Executions, leg1.Complete)
		}
		leg2, err := Run(Config{CheckpointPath: path}, resilientClean)
		if err != nil {
			t.Fatalf("cut %d leg 2: %v", cut, err)
		}
		if !leg2.Resumed {
			t.Fatalf("cut %d: second leg did not resume", cut)
		}
		if !leg2.Complete || leg2.Buggy() {
			t.Fatalf("cut %d leg 2: bugs=%v complete=%v", cut, leg2.Bugs, leg2.Complete)
		}
		if leg2.Executions != full.Executions ||
			leg2.FailurePoints != full.FailurePoints ||
			leg2.ReadFromPoints != full.ReadFromPoints {
			t.Fatalf("cut %d: resumed totals (execs %d, fp %d, rfp %d) != uninterrupted (execs %d, fp %d, rfp %d)",
				cut, leg2.Executions, leg2.FailurePoints, leg2.ReadFromPoints,
				full.Executions, full.FailurePoints, full.ReadFromPoints)
		}
	}
}

// TestCheckpointRoundTripBuggy: an interrupted-and-resumed hunt finds
// the same bug at the same execution index as an uninterrupted one.
// Workers is pinned to 1: execution ordinals and token byte-equality are
// only deterministic for a serial DFS (the parallel engine guarantees
// the same bug set, not the same discovery ordinals — see
// TestParallelParityOnBugs for that property).
func TestCheckpointRoundTripBuggy(t *testing.T) {
	full, err := Run(Config{Workers: 1}, resilientBuggy)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Buggy() {
		t.Fatal("reference hunt found nothing")
	}
	want := full.Bugs[0]
	if want.Execution < 2 {
		t.Fatalf("bug found at execution %d; need ≥2 to interrupt before it", want.Execution)
	}

	path := cpPath(t)
	if _, err := Run(Config{Workers: 1, CheckpointPath: path, MaxExecutions: want.Execution - 1}, resilientBuggy); err != nil {
		t.Fatal(err)
	}
	leg2, err := Run(Config{Workers: 1, CheckpointPath: path}, resilientBuggy)
	if err != nil {
		t.Fatal(err)
	}
	if !leg2.Resumed || !leg2.Buggy() {
		t.Fatalf("resumed hunt: resumed=%v bugs=%v", leg2.Resumed, leg2.Bugs)
	}
	got := leg2.Bugs[0]
	if got.Kind != want.Kind || got.Message != want.Message || got.Execution != want.Execution {
		t.Fatalf("resumed bug %v @%d, uninterrupted %v @%d", got, got.Execution, want, want.Execution)
	}
	if got.ReproToken != want.ReproToken {
		t.Fatal("resumed hunt minted a different repro token")
	}
}

// TestStopChannelInterrupts: a closed Stop channel halts the run before
// the first claim with Interrupted set, and the checkpoint it writes
// resumes to the full exploration.
func TestStopChannelInterrupts(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	path := cpPath(t)
	res, err := Run(Config{Stop: stop, CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("Interrupted not set")
	}
	if res.Complete || res.Executions != 0 {
		t.Fatalf("pre-closed stop should halt before the first execution: execs=%d complete=%v", res.Executions, res.Complete)
	}

	full, err := Run(Config{}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(Config{CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || !resumed.Complete || resumed.Executions != full.Executions {
		t.Fatalf("resume after interrupt: resumed=%v complete=%v execs=%d want %d",
			resumed.Resumed, resumed.Complete, resumed.Executions, full.Executions)
	}
	if resumed.Interrupted {
		t.Fatal("Interrupted leaked into the resumed run")
	}
}

// TestStopRacingTheFinish: Stop may fire at any moment, including just as
// the last worker leaves the pool. Whatever it cuts off, the checkpoint the
// run ends with continues to the full exploration, and a Stop that fires
// after the pool has exited touches nothing (-race checks that).
func TestStopRacingTheFinish(t *testing.T) {
	full, err := Run(Config{Workers: 1}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	for delay := time.Duration(0); delay < 2*time.Millisecond; delay += 40 * time.Microsecond {
		stop := make(chan struct{})
		timer := time.AfterFunc(delay, func() { close(stop) })
		cp, res, err := Continue(Config{Workers: 1, Stop: stop}, resilientClean, nil)
		timer.Stop()
		if err == nil && !res.Complete {
			_, res, err = Continue(Config{Workers: 1}, resilientClean, cp)
		}
		if err != nil || !res.Complete || res.Counters != full.Counters {
			t.Fatalf("stop after %v: %v, complete=%v, %+v; uninterrupted %+v", delay, err, res.Complete, res.Counters, full.Counters)
		}
	}
}

// TestResumeOfCompleteCheckpoint returns the stored result without
// re-exploring.
func TestResumeOfCompleteCheckpoint(t *testing.T) {
	path := cpPath(t)
	full, err := Run(Config{CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete {
		t.Fatalf("reference run incomplete: %+v", full.Stats)
	}
	again, err := Run(Config{CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || !again.Complete {
		t.Fatalf("resumed=%v complete=%v", again.Resumed, again.Complete)
	}
	if again.Executions != full.Executions || len(again.Bugs) != len(full.Bugs) {
		t.Fatalf("stored result mangled: %+v vs %+v", again.Stats, full.Stats)
	}
}

// TestResumeAfterBugReconfirms: a run halted by a bug leaves an
// incomplete checkpoint; resuming it re-runs the buggy execution and
// reports the same (deduplicated) bug instead of losing it.
func TestResumeAfterBugReconfirms(t *testing.T) {
	path := cpPath(t)
	first, err := Run(Config{CheckpointPath: path}, resilientBuggy)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Buggy() || first.Complete {
		t.Fatalf("first hunt: bugs=%v complete=%v", first.Bugs, first.Complete)
	}
	again, err := Run(Config{CheckpointPath: path}, resilientBuggy)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || len(again.Bugs) != len(first.Bugs) {
		t.Fatalf("resumed hunt: resumed=%v bugs=%v", again.Resumed, again.Bugs)
	}
	if again.Bugs[0].Message != first.Bugs[0].Message {
		t.Fatalf("resumed bug diverged: %v vs %v", again.Bugs[0], first.Bugs[0])
	}
}

// TestCheckpointIdentityMismatches: a checkpoint must be refused under a
// different seed, configuration or program, each with a telling error.
func TestCheckpointIdentityMismatches(t *testing.T) {
	path := cpPath(t)
	if _, err := Run(Config{CheckpointPath: path, MaxExecutions: 1}, resilientClean); err != nil {
		t.Fatal(err)
	}

	if _, err := Run(Config{CheckpointPath: path, Seed: 9}, resilientClean); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("seed mismatch: err = %v", err)
	}
	if _, err := Run(Config{CheckpointPath: path, GPF: true}, resilientClean); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Fatalf("config mismatch: err = %v", err)
	}
	if _, err := Run(Config{CheckpointPath: path}, resilientNoisy); err == nil || !strings.Contains(err.Error(), "program") {
		t.Fatalf("program mismatch: err = %v", err)
	}

	// A corrupt checkpoint is NOT an identity mismatch: it is quarantined
	// (renamed aside) and the run starts fresh — covered in depth by
	// TestCorruptCheckpointQuarantine.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatalf("corrupt checkpoint should quarantine, got err = %v", err)
	}
	if !res.Quarantined || res.Resumed {
		t.Fatalf("corrupt checkpoint: quarantined=%v resumed=%v", res.Quarantined, res.Resumed)
	}
}

// TestSetupPanicReturnsError: a panic in the setup function surfaces as
// a setup error from Run, not a process crash.
func TestSetupPanicReturnsError(t *testing.T) {
	_, err := Run(Config{}, func(p *Program) {
		p.NewMachine("A")
		panic("setup exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "setup") || !strings.Contains(err.Error(), "setup exploded") {
		t.Fatalf("err = %v, want a setup error carrying the panic value", err)
	}
}

// TestInternalInvariantBecomesInternalError: a checker-invariant panic
// inside a simulated thread converts into a structured *InternalError
// with the seed and decision path, instead of crashing or being reported
// as a program bug.
func TestInternalInvariantBecomesInternalError(t *testing.T) {
	_, err := Run(Config{Seed: 3}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("t", func(th *Thread) {
			th.Store64(x, 1)
			panic(internalInvariant{"test invariant"})
		})
	})
	ie, ok := err.(*InternalError)
	if !ok {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Msg != "test invariant" || ie.Seed != 3 || ie.Execution != 1 {
		t.Fatalf("InternalError fields: %+v", ie)
	}
	if ie.Path == "" {
		t.Fatal("InternalError lacks the decision path")
	}
	if !strings.Contains(ie.Error(), "internal checker error") {
		t.Fatalf("Error() = %q", ie.Error())
	}
}

// TestMaxTimeStopsMidExecution: the wall-clock budget interrupts an
// execution whose step loop would run far past it, without reporting a
// phantom bug.
func TestMaxTimeStopsMidExecution(t *testing.T) {
	start := time.Now()
	res, err := Run(Config{MaxTime: 50 * time.Millisecond, maxSteps: 1 << 30}, func(p *Program) {
		a := p.NewMachine("A")
		a.Thread("spin", func(th *Thread) {
			for {
				th.Yield()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("MaxTime ignored mid-execution: run took %v", took)
	}
	if res.Buggy() {
		t.Fatalf("budget expiry misreported as bugs: %v", res.Bugs)
	}
	if res.Complete {
		t.Fatal("timed-out run claimed completeness")
	}
	if res.Executions != 1 {
		t.Fatalf("executions = %d, want 1", res.Executions)
	}
}

// TestStaleTokenDivergesOnExitPath: the scheduler steps that follow a
// thread's last instruction run in its goroutine wrapper's deferred exit.
// A strict replay diverging there — the buffered flush commits, and asks
// for a failure point the token does not have — is still a bad token,
// not a crashed process.
func TestStaleTokenDivergesOnExitPath(t *testing.T) {
	// One thread, and no reduction so that its failure point survives
	// without an observer: every step after CLFlushOpt is on the exit path.
	prog := func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 1)
			th.CLFlushOpt(x)
		})
	}
	cfg := Config{Reduction: SwitchOff}
	res, err := Run(cfg, prog)
	if err != nil || res.FailurePoints != 1 {
		t.Fatalf("want one failure point, at the flush commit: %+v, %v", res, err)
	}
	cfg.fillDefaults()
	digest, err := programDigestOf(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	token := encodeReproToken(reproToken{
		Seed: cfg.Seed, Config: configDigest(cfg), Program: digest,
		Path: decision.EncodePath([]decision.Step{{Kind: decision.KindReadFrom, N: 2}}),
	})
	if _, err := Replay(token, Config{Reduction: SwitchOff}, prog); err == nil || !strings.Contains(err.Error(), "does not replay") {
		t.Fatalf("err = %v, want a does-not-replay error", err)
	}
}

// TestInvariantOnExitPathIsAnInternalError: a checker invariant that fails
// in a scheduler step run by an exiting thread's goroutine (onThreadExit →
// advance) surfaces as an InternalError carrying the invariant's own
// message — not a crash, not a Bug, and not the generic "panic in a
// scheduler step" a panic of unknown kind there becomes. The step hook
// raises the invariant at the first step after the only thread returned,
// and that step can only run on its exit path.
func TestInvariantOnExitPathIsAnInternalError(t *testing.T) {
	const msg = "invariant raised on the exit path"
	var r *Thread
	returned, onExitPath := false, false
	audit := stepHook
	stepHook = func(ck *Checker) {
		audit(ck)
		if returned && ck.current == nil && r.st.State() == sched.Finished {
			onExitPath = true
			internalPanic(msg)
		}
	}
	defer func() { stepHook = audit }()

	res, err := Run(Config{Workers: 1}, func(p *Program) {
		x := p.Alloc(8)
		returned = false
		r = p.NewMachine("A").Thread("r", func(th *Thread) {
			th.Store64(x, 1)
			returned = true
		})
	})
	if !onExitPath {
		t.Fatal("the hook never ran a step on the thread's exit path")
	}
	ie, ok := err.(*InternalError)
	if !ok || ie.Msg != msg {
		t.Fatalf("err = %v, want the invariant as an InternalError with message %q", err, msg)
	}
	if res != nil && len(res.Bugs) > 0 {
		t.Fatalf("the invariant was reported as a bug: %v", res.Bugs)
	}
}

// TestLivelockReportKeepsDeadlockDistinct: the step-limit report is
// BugLivelock while a genuine no-progress state stays BugDeadlock.
func TestLivelockReportKeepsDeadlockDistinct(t *testing.T) {
	live, err := Run(Config{maxSteps: 200, MaxExecutions: 1}, func(p *Program) {
		a := p.NewMachine("A")
		a.Thread("spin", func(th *Thread) {
			for {
				th.Yield()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !live.Buggy() || live.Bugs[0].Kind != BugLivelock ||
		live.Bugs[0].Message != "step limit exceeded (200): livelock in checked program?" {
		t.Fatalf("spin: bugs = %v, want livelock", live.Bugs)
	}

	dead, err := Run(Config{MaxExecutions: 1}, func(p *Program) {
		a := p.NewMachine("A")
		mu := p.NewMutex("m")
		a.Thread("self", func(th *Thread) {
			mu.Lock(th)
			mu.Lock(th) // blocks forever on itself
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// The note in parentheses is the mutex's block note, built in NewMutex.
	if !dead.Buggy() || dead.Bugs[0].Kind != BugDeadlock ||
		dead.Bugs[0].Message != "deadlock: all live threads blocked: A/self(mutex m)" {
		t.Fatalf("self-lock: bugs = %v, want deadlock", dead.Bugs)
	}
}

// countInjectedFailures counts KindFailure steps that chose injection.
func countInjectedFailures(steps []decision.Step) int {
	n := 0
	for _, s := range steps {
		if s.Kind == decision.KindFailure && s.Chosen == 1 {
			n++
		}
	}
	return n
}

// TestTokenMinimization: an artificially inflated witness (an extra
// injected failure the bug does not need) is pruned back by the greedy
// minimizer, and the minimized token still replays to the same bug.
func TestTokenMinimization(t *testing.T) {
	cfg := Config{}
	cfg.fillDefaults()
	progDigest, err := programDigestOf(cfg, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Run(Config{}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buggy() || res.Bugs[0].ReproToken == "" {
		t.Fatalf("no tokened bug found: %v", res.Bugs)
	}
	bug := res.Bugs[0]

	// Run's own pass already minimized the token: re-minimizing must be a
	// fixpoint.
	if again := minimizeToken(cfg, resilientNoisy, progDigest, bug); again != bug.ReproToken {
		t.Fatal("minimization is not a fixpoint")
	}

	tok, err := decodeReproToken(bug.ReproToken)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := decision.DecodePath(tok.Path)
	if err != nil {
		t.Fatal(err)
	}
	minimal := countInjectedFailures(steps)

	// Inflate: flip one non-injected failure decision to injected and keep
	// the variant if the bug still reproduces (machine C's failure is
	// irrelevant to the bug, so at least one flip must).
	var inflated []decision.Step
	for i := range steps {
		if steps[i].Kind != decision.KindFailure || steps[i].Chosen != 0 {
			continue
		}
		cand := append([]decision.Step(nil), steps...)
		cand[i].Chosen = 1
		r, executed, err := replayPath(cfg, resilientNoisy, progDigest, cand, true)
		if err != nil || !reproduces(r, bug) {
			continue
		}
		if countInjectedFailures(executed) > minimal {
			inflated = executed
			break
		}
	}
	if inflated == nil {
		t.Fatal("could not build an inflated witness: no irrelevant failure point found")
	}

	fat := bug
	fat.ReproToken = encodeReproToken(reproToken{
		Seed: tok.Seed, Config: tok.Config, Program: tok.Program,
		Path: decision.EncodePath(inflated),
	})
	min := minimizeToken(cfg, resilientNoisy, progDigest, fat)
	mtok, err := decodeReproToken(min)
	if err != nil {
		t.Fatal(err)
	}
	msteps, err := decision.DecodePath(mtok.Path)
	if err != nil {
		t.Fatal(err)
	}
	if got := countInjectedFailures(msteps); got != minimal {
		t.Fatalf("minimized witness injects %d failures, want %d (inflated had %d)",
			got, minimal, countInjectedFailures(inflated))
	}

	// And the minimized token replays through the public API.
	rep, err := Replay(min, Config{}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !reproduces(rep, bug) || rep.Executions != 1 {
		t.Fatalf("minimized token replay: execs=%d bugs=%v", rep.Executions, rep.Bugs)
	}
}

// TestReplayRejectsBadTokens covers the token validation surface.
func TestReplayRejectsBadTokens(t *testing.T) {
	// Serial: which witness of the bug a parallel run that stops at its
	// first bug reports depends on which worker got there first, and not
	// every witness diverges on the fixed program below.
	res, err := Run(Config{Workers: 1}, resilientBuggy)
	if err != nil {
		t.Fatal(err)
	}
	token := res.Bugs[0].ReproToken

	if _, err := Replay("!!!not-base64!!!", Config{}, resilientBuggy); err == nil {
		t.Error("garbage token accepted")
	}
	if _, err := Replay(token, Config{GPF: true}, resilientBuggy); err == nil || !strings.Contains(err.Error(), "configuration") {
		t.Errorf("config mismatch: err = %v", err)
	}
	// A structurally different program is rejected by digest up front.
	if _, err := Replay(token, Config{}, resilientNoisy); err == nil || !strings.Contains(err.Error(), "program") {
		t.Errorf("program mismatch: err = %v", err)
	}
	// A structurally identical program with different behaviour (the bug
	// fixed by adding a flush) slips past the digest but is caught when
	// the strict replay diverges.
	if _, err := Replay(token, Config{}, resilientClean); err == nil || !strings.Contains(err.Error(), "does not replay") {
		t.Errorf("behavioural divergence: err = %v", err)
	}

	rep, err := Replay(token, Config{}, resilientBuggy)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Buggy() || rep.Bugs[0].Message != res.Bugs[0].Message {
		t.Fatalf("replay diverged: %v", rep.Bugs)
	}
	if len(rep.Bugs[0].Trace) == 0 {
		t.Fatal("replay did not capture a trace")
	}
}

// TestCheckpointCadenceDefaults pins the one place the checkpoint cadence
// gets its default: a run with a checkpoint file and no cadence writes every
// 2 s, whichever mode runs it; a cadence given alone is kept alone; no file
// means no cadence.
func TestCheckpointCadenceDefaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		every    int
		interval time.Duration
	}{
		{"path only", Config{CheckpointPath: "x.ck"}, 0, 2 * time.Second},
		{"every alone", Config{CheckpointPath: "x.ck", CheckpointEvery: 64}, 64, 0},
		{"interval alone", Config{CheckpointPath: "x.ck", CheckpointInterval: time.Minute}, 0, time.Minute},
		{"no path", Config{}, 0, 0},
	} {
		tc.cfg.fillDefaults()
		if tc.cfg.CheckpointEvery != tc.every || tc.cfg.CheckpointInterval != tc.interval {
			t.Errorf("%s: every=%d interval=%v, want every=%d interval=%v", tc.name,
				tc.cfg.CheckpointEvery, tc.cfg.CheckpointInterval, tc.every, tc.interval)
		}
	}
}
