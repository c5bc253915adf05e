package core

import (
	"fmt"
	"sort"
	"testing"
)

// Tests for the parallel exploration engine with an explicit worker
// count > 1, so the donation, reservation and checkpoint paths are
// exercised even on a single-CPU host (workers are goroutines; they
// interleave at the engine mutex and inside simulations regardless of
// GOMAXPROCS). The core contract under test: worker count must not
// change WHAT is explored, only how it is scheduled.

// bugSet reduces a result's bugs to their sorted distinct
// (kind, message) pairs — the worker-count-invariant view of them.
func bugSet(bugs []Bug) []string {
	seen := make(map[string]bool, len(bugs))
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

func sameStrings(a, b []string) bool {
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

// TestParallelParityOnStats: a complete exploration visits exactly the
// same executions and creates exactly the same decision points no
// matter how many workers carve up the tree.
func TestParallelParityOnStats(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{GPF: true},
		{GPF: true, Poison: true},
	} {
		serialCfg := cfg
		serialCfg.Workers = 1
		serial, err := Run(serialCfg, resilientClean)
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Complete || serial.Buggy() {
			t.Fatalf("serial run: complete=%v bugs=%v", serial.Complete, serial.Bugs)
		}
		parCfg := cfg
		parCfg.Workers = 4
		par, err := Run(parCfg, resilientClean)
		if err != nil {
			t.Fatal(err)
		}
		if !par.Complete {
			t.Fatalf("parallel run incomplete: %+v", par.Stats)
		}
		if par.Executions != serial.Executions ||
			par.FailurePoints != serial.FailurePoints ||
			par.ReadFromPoints != serial.ReadFromPoints ||
			par.PoisonPoints != serial.PoisonPoints ||
			par.Steps != serial.Steps {
			t.Fatalf("cfg %+v: workers=4 stats (execs %d, fp %d, rfp %d, pp %d, steps %d) != workers=1 (execs %d, fp %d, rfp %d, pp %d, steps %d)",
				cfg,
				par.Executions, par.FailurePoints, par.ReadFromPoints, par.PoisonPoints, par.Steps,
				serial.Executions, serial.FailurePoints, serial.ReadFromPoints, serial.PoisonPoints, serial.Steps)
		}
	}
}

// TestParallelParityOnBugs: with ContinueAfterBug the whole tree is
// explored either way, so four workers must surface exactly the same
// distinct bugs as one — and every parallel token must replay.
func TestParallelParityOnBugs(t *testing.T) {
	for name, prog := range map[string]func(*Program){
		"buggy": resilientBuggy,
		"noisy": resilientNoisy,
	} {
		serial, err := Run(Config{Workers: 1, ContinueAfterBug: true}, prog)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Run(Config{Workers: 4, ContinueAfterBug: true}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if !serial.Complete || !par.Complete {
			t.Fatalf("%s: complete serial=%v parallel=%v", name, serial.Complete, par.Complete)
		}
		if par.Executions != serial.Executions || par.Steps != serial.Steps {
			t.Fatalf("%s: workers=4 (execs %d, steps %d) != workers=1 (execs %d, steps %d)",
				name, par.Executions, par.Steps, serial.Executions, serial.Steps)
		}
		ws, ps := bugSet(serial.Bugs), bugSet(par.Bugs)
		if len(ps) == 0 || !sameStrings(ws, ps) {
			t.Fatalf("%s: distinct bugs diverged: workers=1 %v, workers=4 %v", name, ws, ps)
		}
		for i, b := range par.Bugs {
			if b.ReproToken == "" {
				t.Fatalf("%s: parallel bug %d has no repro token: %+v", name, i, b)
			}
			rep, err := Replay(b.ReproToken, Config{}, prog)
			if err != nil {
				t.Fatalf("%s: replaying parallel bug %d: %v", name, i, err)
			}
			if !reproduces(rep, b) {
				t.Fatalf("%s: parallel bug %d did not reproduce: token bugs %v, want %v",
					name, i, rep.Bugs, b)
			}
		}
	}
}

// TestParallelBugOrderDeterministic: with more than one worker, bug
// discovery order is scheduling-dependent, so the engine sorts the
// merged bugs; two parallel runs must report them identically.
func TestParallelBugOrderDeterministic(t *testing.T) {
	first, err := Run(Config{Workers: 4, ContinueAfterBug: true}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(Config{Workers: 4, ContinueAfterBug: true}, resilientNoisy)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Bugs) != len(second.Bugs) {
		t.Fatalf("bug counts diverged across runs: %d vs %d", len(first.Bugs), len(second.Bugs))
	}
	for i := range first.Bugs {
		if first.Bugs[i].Kind != second.Bugs[i].Kind || first.Bugs[i].Message != second.Bugs[i].Message {
			t.Fatalf("bug %d diverged across runs: %+v vs %+v", i, first.Bugs[i], second.Bugs[i])
		}
	}
}

// TestParallelExactMaxExecutions: the reservation protocol hands out
// execution slots one at a time, so MaxExecutions is exact — never
// overshot by racing workers — for every cut of the state space.
func TestParallelExactMaxExecutions(t *testing.T) {
	full, err := Run(Config{Workers: 1}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < full.Executions; cut++ {
		res, err := Run(Config{Workers: 4, MaxExecutions: cut}, resilientClean)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if res.Executions != cut {
			t.Fatalf("cut %d: ran %d executions, want exactly %d", cut, res.Executions, cut)
		}
		if res.Complete {
			t.Fatalf("cut %d: truncated run reported Complete", cut)
		}
	}
}

// TestParallelCheckpointResume: a checkpoint cut under four workers
// resumes to the same totals as an uninterrupted serial run — including
// when the resuming run uses a different worker count, since the
// frontier encoding is worker-agnostic.
func TestParallelCheckpointResume(t *testing.T) {
	full, err := Run(Config{Workers: 1}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	for _, resumeWorkers := range []int{1, 4} {
		for cut := 1; cut < full.Executions; cut++ {
			name := fmt.Sprintf("cut=%d resumeWorkers=%d", cut, resumeWorkers)
			path := cpPath(t)
			leg1, err := Run(Config{Workers: 4, CheckpointPath: path, MaxExecutions: cut}, resilientClean)
			if err != nil {
				t.Fatalf("%s leg 1: %v", name, err)
			}
			if leg1.Executions != cut || leg1.Complete {
				t.Fatalf("%s leg 1: executions=%d complete=%v", name, leg1.Executions, leg1.Complete)
			}
			leg2, err := Run(Config{Workers: resumeWorkers, CheckpointPath: path}, resilientClean)
			if err != nil {
				t.Fatalf("%s leg 2: %v", name, err)
			}
			if !leg2.Resumed || !leg2.Complete || leg2.Buggy() {
				t.Fatalf("%s leg 2: resumed=%v complete=%v bugs=%v", name, leg2.Resumed, leg2.Complete, leg2.Bugs)
			}
			if leg2.Executions != full.Executions ||
				leg2.FailurePoints != full.FailurePoints ||
				leg2.ReadFromPoints != full.ReadFromPoints ||
				leg2.Steps != full.Steps {
				t.Fatalf("%s: resumed totals (execs %d, fp %d, rfp %d, steps %d) != uninterrupted (execs %d, fp %d, rfp %d, steps %d)",
					name, leg2.Executions, leg2.FailurePoints, leg2.ReadFromPoints, leg2.Steps,
					full.Executions, full.FailurePoints, full.ReadFromPoints, full.Steps)
			}
		}
	}
}

// TestParallelPreClosedStop: a Stop channel that is already closed
// stops the run before any execution starts — workers check the stop
// on the way into the claim loop, so a SIGTERM that races run startup
// ends the run before the first claim.
func TestParallelPreClosedStop(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	res, err := Run(Config{Workers: 4, Stop: stop}, resilientClean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 0 {
		t.Fatalf("executions = %d, want 0 (a pre-closed stop must win before the first claim)", res.Executions)
	}
	if !res.Interrupted || res.Complete {
		t.Fatalf("interrupted=%v complete=%v, want interrupted and incomplete", res.Interrupted, res.Complete)
	}
}

// TestParallelStopAfterBug: without ContinueAfterBug a bug stops all
// workers promptly; the result is the (deduplicated) bug and an
// incomplete run that a resume can pick up.
func TestParallelStopAfterBug(t *testing.T) {
	res, err := Run(Config{Workers: 4}, resilientBuggy)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buggy() || res.Complete {
		t.Fatalf("bugs=%v complete=%v, want buggy and incomplete", res.Bugs, res.Complete)
	}
	want := bugSet(res.Bugs)
	if len(res.Bugs) != len(want) {
		t.Fatalf("bugs not deduplicated: %v", res.Bugs)
	}
}

// TestParallelInternalErrorPropagates: an internal-invariant panic on
// any worker surfaces as one *InternalError from Run, with the engine
// shut down cleanly rather than deadlocked or double-reported.
func TestParallelInternalErrorPropagates(t *testing.T) {
	_, err := Run(Config{Workers: 4, Seed: 3}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("t", func(th *Thread) {
			th.Store64(x, 1)
			panic(internalInvariant{"parallel test invariant"})
		})
	})
	ie, ok := err.(*InternalError)
	if !ok {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Msg != "parallel test invariant" || ie.Path == "" {
		t.Fatalf("InternalError fields: %+v", ie)
	}
}
