package harness

import (
	"sort"
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
)

// The determinism-parity suite for the parallel engine: across every
// benchmark in the paper's evaluation, carving the decision tree into
// four workers' subtrees must change nothing observable — executions,
// decision points and the distinct-bug set are identical to a serial
// run, and every token minted by a parallel run replays.

// distinctBugs reduces bugs to their sorted distinct (kind, message)
// pairs, the worker-count-invariant view.
func distinctBugs(bugs []cxlmc.Bug) []string {
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

// TestParallelParityFixedBenchmarks: complete exploration of every
// fixed RECIPE benchmark yields identical statistics (and the same —
// empty — bug set) under one and four workers.
func TestParallelParityFixedBenchmarks(t *testing.T) {
	for _, b := range Benchmarks {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cfg := recipe.Config{Keys: 4, Workers: 1}
			serial, err := cxlmc.Run(cxlmc.Config{Workers: 1, MaxExecutions: 2_000_000}, recipe.Program(b, cfg))
			if err != nil {
				t.Fatal(err)
			}
			par, err := cxlmc.Run(cxlmc.Config{Workers: 4, MaxExecutions: 2_000_000}, recipe.Program(b, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Complete || !par.Complete {
				t.Fatalf("incomplete exploration: serial=%v parallel=%v", serial.Complete, par.Complete)
			}
			if serial.Buggy() || par.Buggy() {
				t.Fatalf("fixed benchmark reported bugs: serial=%v parallel=%v", serial.Bugs, par.Bugs)
			}
			if par.Executions != serial.Executions ||
				par.FailurePoints != serial.FailurePoints ||
				par.ReadFromPoints != serial.ReadFromPoints {
				t.Fatalf("workers=4 stats (execs %d, fp %d, rfp %d) != workers=1 (execs %d, fp %d, rfp %d)",
					par.Executions, par.FailurePoints, par.ReadFromPoints,
					serial.Executions, serial.FailurePoints, serial.ReadFromPoints)
			}
			t.Logf("parity at %d execs, %d fpoints, %d rfpoints", par.Executions, par.FailurePoints, par.ReadFromPoints)
		})
	}
}

// TestParallelParityBuggyBenchmarks: with ContinueAfterBug the whole
// tree is explored either way, so four workers must surface exactly the
// same distinct seeded-bug manifestations as one worker — and every
// token a parallel run minted must replay under cxlmc.Replay to the
// same bug. This is the end-to-end form of the engine-level parity
// tests in internal/core.
func TestParallelParityBuggyBenchmarks(t *testing.T) {
	for _, b := range Benchmarks {
		b := b
		bi := b.Bugs[0]
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() && b.Name != "CCEH" && b.Name != "P-CLHT" {
				t.Skip("slow buggy sweep entry in short mode")
			}
			cfg := recipe.Config{Keys: bi.Keys, Workers: bi.Workers, Stride: bi.Stride, Bugs: bi.Bit}
			program := recipe.Program(b, cfg)
			serial, err := cxlmc.Run(cxlmc.Config{Workers: 1, ContinueAfterBug: true, MaxExecutions: 2_000_000}, program)
			if err != nil {
				t.Fatal(err)
			}
			par, err := cxlmc.Run(cxlmc.Config{Workers: 4, ContinueAfterBug: true, MaxExecutions: 2_000_000}, program)
			if err != nil {
				t.Fatal(err)
			}
			if !serial.Complete || !par.Complete {
				t.Fatalf("incomplete exploration: serial=%v parallel=%v", serial.Complete, par.Complete)
			}
			if par.Executions != serial.Executions ||
				par.FailurePoints != serial.FailurePoints ||
				par.ReadFromPoints != serial.ReadFromPoints {
				t.Fatalf("workers=4 stats (execs %d, fp %d, rfp %d) != workers=1 (execs %d, fp %d, rfp %d)",
					par.Executions, par.FailurePoints, par.ReadFromPoints,
					serial.Executions, serial.FailurePoints, serial.ReadFromPoints)
			}
			ws, ps := distinctBugs(serial.Bugs), distinctBugs(par.Bugs)
			if len(ps) == 0 {
				t.Fatalf("bug #%d not detected in parallel run: %s", bi.Table, HuntDiagnosis(par))
			}
			if len(ws) != len(ps) {
				t.Fatalf("distinct bugs diverged: workers=1 found %d, workers=4 found %d\nserial: %v\nparallel: %v",
					len(ws), len(ps), ws, ps)
			}
			for i := range ws {
				if ws[i] != ps[i] {
					t.Fatalf("distinct bug %d diverged: workers=1 %q, workers=4 %q", i, ws[i], ps[i])
				}
			}
			for i, bug := range par.Bugs {
				if bug.ReproToken == "" {
					t.Fatalf("parallel bug %d carries no repro token: %v", i, bug)
				}
				rep, err := cxlmc.Replay(bug.ReproToken, cxlmc.Config{}, program)
				if err != nil {
					t.Fatalf("replaying parallel bug %d (%s %q): %v", i, bug.Kind, bug.Message, err)
				}
				found := false
				for _, rb := range rep.Bugs {
					if rb.Kind == bug.Kind && rb.Message == bug.Message {
						found = true
					}
				}
				if !found {
					t.Fatalf("parallel bug %d (%s %q) did not reproduce: replay found %v", i, bug.Kind, bug.Message, rep.Bugs)
				}
			}
			t.Logf("parity at %d execs; %d distinct bugs, all %d tokens replayed", par.Executions, len(ps), len(par.Bugs))
		})
	}
}

// TestParallelParityBugHunt: the plain hunt configuration (stop at the
// first bug) must detect the bug under four workers too, and its token
// must replay — the discovery ordinal may differ, the bug may not.
func TestParallelParityBugHunt(t *testing.T) {
	b := Benchmarks[4] // P-CLHT: fast single-configuration hunts
	bi := b.Bugs[0]
	res, err := BugHunt(b, bi, cxlmc.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buggy() {
		t.Fatalf("bug #%d not detected with 4 workers: %s", bi.Table, HuntDiagnosis(res))
	}
	program := recipe.Program(b, recipe.Config{Keys: bi.Keys, Workers: bi.Workers, Stride: bi.Stride, Bugs: bi.Bit})
	for _, bug := range res.Bugs {
		rep, err := cxlmc.Replay(bug.ReproToken, cxlmc.Config{}, program)
		if err != nil {
			t.Fatalf("replay failed: %v", err)
		}
		if !rep.Buggy() || rep.Bugs[0].Kind != bug.Kind || rep.Bugs[0].Message != bug.Message {
			t.Fatalf("replay diverged: got %v, want %s %q", rep.Bugs, bug.Kind, bug.Message)
		}
	}
}
