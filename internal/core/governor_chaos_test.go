package core

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"

	"repro/internal/chaos"
)

// This file tests the resource governor (memory budgets, degraded stop)
// and the chaos-facing resilience paths (checkpoint I/O retry,
// corrupt-checkpoint quarantine, fault-injected parity).

// referenceRun explores prog to completion with no budget, no chaos and
// no checkpointing — the ground truth the degraded/chaotic runs must
// converge to.
func referenceRun(t *testing.T, prog func(*Program)) *Result {
	t.Helper()
	res, err := Run(Config{ContinueAfterBug: true}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("reference run incomplete")
	}
	return res
}

// sameExploration asserts two completed runs explored the same state
// space: execution and decision-point counts and the distinct-bug set
// are all worker-count- and interruption-invariant.
func sameExploration(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Executions != want.Executions ||
		got.FailurePoints != want.FailurePoints ||
		got.ReadFromPoints != want.ReadFromPoints ||
		got.PoisonPoints != want.PoisonPoints {
		t.Fatalf("%s: explored (%d execs, %d/%d/%d points), want (%d execs, %d/%d/%d points)",
			label,
			got.Executions, got.FailurePoints, got.ReadFromPoints, got.PoisonPoints,
			want.Executions, want.FailurePoints, want.ReadFromPoints, want.PoisonPoints)
	}
	if !sameStrings(bugSet(got.Bugs), bugSet(want.Bugs)) {
		t.Fatalf("%s: bugs %v, want %v", label, bugSet(got.Bugs), bugSet(want.Bugs))
	}
}

// TestGovernorDegradedStopAndResume: under an impossible memory budget
// the governor must escalate to a degraded stop with a valid checkpoint
// — never an OOM, never a lost frontier — and a resume without the
// budget must finish the exact exploration an unconstrained run does.
func TestGovernorDegradedStopAndResume(t *testing.T) {
	want := referenceRun(t, resilientNoisy)

	path := cpPath(t)
	constrained := Config{
		Workers:          2,
		ContinueAfterBug: true,
		MemBudgetBytes:   1, // always over budget: forces full escalation
		GovernorEvery:    1,
		CheckpointPath:   path,
	}
	res, err := Run(constrained, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("impossible budget did not set Degraded")
	}
	if res.Complete {
		t.Fatal("run under a 1-byte budget claims completion")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("degraded stop left no checkpoint: %v", err)
	}

	// Resume with the budget lifted; the checkpoint carries the frontier.
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
	sameExploration(t, "degraded-then-resumed", resumed, want)
}

// TestGovernorUnderBudgetIsInvisible: a generous budget must not change
// the exploration at all.
func TestGovernorUnderBudgetIsInvisible(t *testing.T) {
	want := referenceRun(t, resilientNoisy)
	res, err := Run(Config{
		ContinueAfterBug: true,
		MemBudgetBytes:   16 << 30, // far above any real heap here
		GovernorEvery:    1,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || !res.Complete {
		t.Fatalf("degraded=%v complete=%v under a 16 GiB budget", res.Degraded, res.Complete)
	}
	sameExploration(t, "budgeted", res, want)
}

// TestChaosIOParity: with a single worker and a fixed chaos seed the run
// is fully deterministic; transient I/O faults on every checkpoint
// operation must be absorbed (retry or tolerated periodic miss) and the
// final exploration must match the chaos-free ground truth.
func TestChaosIOParity(t *testing.T) {
	want := referenceRun(t, resilientNoisy)

	inj := chaos.New(chaos.Config{
		Seed:          42,
		WriteErrPct:   30,
		ReadErrPct:    20,
		SyncErrPct:    20,
		RenameErrPct:  20,
		ShortWritePct: 50,
		MaxFaults:     25,
	})
	res, err := Run(Config{
		Workers:          1,
		ContinueAfterBug: true,
		CheckpointPath:   cpPath(t),
		CheckpointEvery:  2,
		Chaos:            inj,
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("chaotic run incomplete")
	}
	sameExploration(t, "chaos-io", res, want)
	if inj.Stats().Total() == 0 {
		t.Fatal("chaos injected nothing; the test exercised no fault path")
	}
	for _, b := range res.Bugs {
		rep, err := Replay(b.ReproToken, Config{}, resilientNoisy)
		if err != nil {
			t.Fatalf("token from chaotic run does not replay: %v", err)
		}
		if len(rep.Bugs) == 0 || rep.Bugs[0].Kind != b.Kind {
			t.Fatalf("token replayed to %v, want kind %v", rep.Bugs, b.Kind)
		}
	}
}

// TestChaosSchedulingParity: stalls, spurious wakeups and a checkpoint
// written at every boundary under four workers must not change what gets
// explored.
func TestChaosSchedulingParity(t *testing.T) {
	want := referenceRun(t, resilientNoisy)

	res, err := Run(Config{
		Workers:          4,
		ContinueAfterBug: true,
		CheckpointPath:   cpPath(t),
		CheckpointEvery:  1,
		Chaos: chaos.New(chaos.Config{
			Seed:            7,
			StallPct:        30,
			SpuriousWakePct: 30,
			MaxFaults:       200,
		}),
	}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("run under scheduling chaos incomplete")
	}
	sameExploration(t, "chaos-sched", res, want)
}

// TestResumeUnderChaosConverges: interrupt a run mid-way, then resume
// repeatedly under I/O chaos (sharing one fault budget, so the storm
// ends) until it completes. Lost progress between checkpoints may be
// re-explored, but because checkpoint counters are checkpoint-relative
// the final totals must equal the uninterrupted run's.
func TestResumeUnderChaosConverges(t *testing.T) {
	want := referenceRun(t, resilientNoisy)
	path := cpPath(t)

	cut := want.Executions / 2
	if _, err := Run(Config{
		ContinueAfterBug: true,
		CheckpointPath:   path,
		CheckpointEvery:  2,
		MaxExecutions:    cut,
	}, resilientNoisy); err != nil {
		t.Fatal(err)
	}

	inj := chaos.New(chaos.Config{
		Seed:          99,
		WriteErrPct:   40,
		ReadErrPct:    30,
		SyncErrPct:    30,
		RenameErrPct:  30,
		ShortWritePct: 50,
		MaxFaults:     60,
	})
	var final *Result
	for attempt := 0; attempt < 20; attempt++ {
		res, err := Run(Config{
			ContinueAfterBug: true,
			CheckpointPath:   path,
			CheckpointEvery:  2,
			Chaos:            inj,
		}, resilientNoisy)
		if err != nil {
			// Only injected I/O failures are acceptable leg outcomes; the
			// next leg resumes from the last installed checkpoint.
			if !chaos.IsInjected(errors.Unwrap(err)) && !chaos.IsInjected(err) {
				t.Fatalf("attempt %d: non-injected failure: %v", attempt, err)
			}
			continue
		}
		if res.Complete {
			final = res
			break
		}
	}
	if final == nil {
		t.Fatal("run never completed within the fault budget")
	}
	sameExploration(t, "resume-under-chaos", final, want)
}

// TestCorruptCheckpointQuarantine: an undecodable checkpoint — whether
// the JSON itself or a unit snapshot inside a well-formed envelope — is
// renamed to <path>.corrupt and the run starts fresh and completes.
func TestCorruptCheckpointQuarantine(t *testing.T) {
	want := referenceRun(t, resilientClean)

	// Variant 1: the file is not even JSON.
	path := cpPath(t)
	if err := os.WriteFile(path, []byte("}garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{ContinueAfterBug: true, CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quarantined || res.Resumed || !res.Complete {
		t.Fatalf("quarantined=%v resumed=%v complete=%v", res.Quarantined, res.Resumed, res.Complete)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not preserved: %v", err)
	}
	sameExploration(t, "post-quarantine", res, want)

	// Variant 2: a well-formed envelope with matching identity but a unit
	// snapshot that cannot decode. Only decodability — not identity — may
	// trigger quarantine, so the identity must genuinely match.
	cfg := Config{ContinueAfterBug: true, CheckpointPath: cpPath(t)}
	full := cfg
	full.fillDefaults()
	progDigest, err := programDigestOf(full, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&checkpointData{
		Version:       checkpointVersion,
		Seed:          cfg.Seed,
		ConfigDigest:  configDigest(full),
		ProgramDigest: progDigest,
		Units:         [][]byte{{0xDE, 0xAD, 0xBE, 0xEF}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.CheckpointPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = Run(cfg, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quarantined || !res.Complete {
		t.Fatalf("bad-unit envelope: quarantined=%v complete=%v", res.Quarantined, res.Complete)
	}
	sameExploration(t, "post-unit-quarantine", res, want)
}

// TestCheckpointPermanentWriteError: a permanent failure (disk full) on
// every write must surface from Run with the underlying errno intact,
// leave no temp file behind, and leave a pre-existing checkpoint
// untouched so a later run still resumes.
func TestCheckpointPermanentWriteError(t *testing.T) {
	want := referenceRun(t, resilientClean)
	path := cpPath(t)

	if _, err := Run(Config{
		ContinueAfterBug: true,
		CheckpointPath:   path,
		MaxExecutions:    1,
	}, resilientClean); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	_, err = Run(Config{
		ContinueAfterBug: true,
		CheckpointPath:   path,
		Chaos: chaos.New(chaos.Config{
			Seed:        1,
			WriteErrPct: 100,
			Permanent:   syscall.ENOSPC,
		}),
	}, resilientClean)
	if err == nil {
		t.Fatal("permanent write failure did not surface")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("error does not carry ENOSPC: %v", err)
	}
	if _, serr := os.Stat(path + ".tmp"); !errors.Is(serr, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", serr)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed writes clobbered the existing checkpoint")
	}

	resumed, err := Run(Config{ContinueAfterBug: true, CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Resumed || !resumed.Complete {
		t.Fatalf("resumed=%v complete=%v after the disk-full episode", resumed.Resumed, resumed.Complete)
	}
	sameExploration(t, "post-enospc-resume", resumed, want)
}

// TestCheckpointTransientRetry: a single transient short write must be
// healed by the retry loop — the run completes, counts no checkpoint
// errors, and the installed file is readable.
func TestCheckpointTransientRetry(t *testing.T) {
	path := cpPath(t)
	res, err := Run(Config{
		ContinueAfterBug: true,
		CheckpointPath:   path,
		Chaos: chaos.New(chaos.Config{
			Seed:          5,
			WriteErrPct:   100,
			ShortWritePct: 100,
			MaxFaults:     1,
		}),
	}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.CheckpointErrors != 0 {
		t.Fatalf("complete=%v cpErrs=%d after a retried transient fault", res.Complete, res.CheckpointErrors)
	}
	again, err := Run(Config{ContinueAfterBug: true, CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Resumed || !again.Complete {
		t.Fatalf("checkpoint written through retry is not loadable: resumed=%v complete=%v",
			again.Resumed, again.Complete)
	}
}

// TestStaleTempFileIsReplaced: a leftover .tmp from a crashed writer
// must not confuse a fresh run.
func TestStaleTempFileIsReplaced(t *testing.T) {
	path := cpPath(t)
	if err := os.WriteFile(path+".tmp", []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{ContinueAfterBug: true, CheckpointPath: path}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("run with a stale temp file did not complete")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint installed: %v", err)
	}
}

// eventStorm multiplies crash branches: many flushed stores create a
// deep decision prefix in every execution.
func eventStorm(p *Program) {
	a := p.NewMachine("A")
	cells := make([]Addr, 6)
	for i := range cells {
		cells[i] = p.AllocAligned(8, 64)
	}
	a.Thread("w", func(th *Thread) {
		for _, c := range cells {
			th.Store64(c, 1)
			th.CLFlush(c)
			th.SFence()
		}
	})
}

// TestMaxEventsPerExec: per-execution decision blowup must become a
// structured BugResourceExhausted with a replayable token, not an
// unbounded walk.
func TestMaxEventsPerExec(t *testing.T) {
	cfg := Config{ContinueAfterBug: true, MaxEventsPerExec: 4}
	res, err := Run(cfg, eventStorm)
	if err != nil {
		t.Fatal(err)
	}
	var bug *Bug
	for i := range res.Bugs {
		if res.Bugs[i].Kind == BugResourceExhausted {
			bug = &res.Bugs[i]
		}
	}
	if bug == nil {
		t.Fatalf("no BugResourceExhausted among %v", bugSet(res.Bugs))
	}
	if !strings.Contains(bug.Message, "decision-event limit") {
		t.Fatalf("diagnosis message: %q", bug.Message)
	}
	rep, err := Replay(bug.ReproToken, cfg, eventStorm)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range rep.Bugs {
		if b.Kind == BugResourceExhausted {
			found = true
		}
	}
	if !found {
		t.Fatalf("replay reproduced %v, want resource-exhausted", bugSet(rep.Bugs))
	}

	// Without the limit the same program explores cleanly — the bug is a
	// budget diagnosis, not a program defect.
	clean, err := Run(Config{ContinueAfterBug: true}, eventStorm)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Buggy() {
		t.Fatalf("unlimited run reported %v", bugSet(clean.Bugs))
	}
}
