package gofront_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/gofront"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
)

// loadExampleCCEH loads examples/src/cceh.go through the front-end and
// returns its checker program.
func loadExampleCCEH(t testing.TB) func(*core.Program) {
	t.Helper()
	path := filepath.Join("..", "..", "examples", "src", "cceh.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", path, err)
	}
	s, err := gofront.Load(path, src)
	if err != nil {
		t.Fatalf("Load(%s): %v", path, err)
	}
	prog, err := s.Program("Program")
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	return prog
}

// handPortedCCEH is the same workload built from the hand-ported
// benchmark: CCEH with the seeded constructor-segment-flush bug under
// the default Table 5 driver (10 keys, 2 machines, 1 worker each).
func handPortedCCEH() func(*core.Program) {
	return recipe.Program(cceh.Benchmark, recipe.Config{Bugs: cceh.BugCtorSegmentFlush})
}

// bugSet reduces a result to a sorted, comparable (kind, message) set.
func bugSet(res *core.Result) []string {
	var out []string
	for _, b := range res.Bugs {
		out = append(out, fmt.Sprintf("[%s] %s (machine %s, thread %s)", b.Kind, b.Message, b.Machine, b.Thread))
	}
	sort.Strings(out)
	return out
}

// TestSourceCCEHParity is the tentpole acceptance check: the
// source-loaded CCEH must report exactly the bug set of the hand-ported
// benchmark, and its repro tokens must replay — against the source
// program AND against the hand-ported one (the two share a program digest
// because their setup streams are identical). Run serial (Workers:1 — 0
// would mean GOMAXPROCS) and with Workers:4 to cover the parallel engine.
// Both runs stop at the seeded bug, so only the serial leg can also pin
// the execution count: how far the other workers got when one found the
// bug is a matter of timing (see core.Stats for the contract).
func TestSourceCCEHParity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			cfg := core.Config{Seed: 1, Workers: workers}

			srcProg := loadExampleCCEH(t)
			handProg := handPortedCCEH()

			srcRes, err := core.Run(cfg, srcProg)
			if err != nil {
				t.Fatalf("Run(source): %v", err)
			}
			handRes, err := core.Run(cfg, handProg)
			if err != nil {
				t.Fatalf("Run(hand-ported): %v", err)
			}

			if len(srcRes.Bugs) == 0 {
				t.Fatalf("source-loaded CCEH found no bugs; seeded bug #1 should surface")
			}
			if got, want := bugSet(srcRes), bugSet(handRes); !reflect.DeepEqual(got, want) {
				t.Errorf("bug set mismatch:\n  source:      %v\n  hand-ported: %v", got, want)
			}
			if (workers == 1 || srcRes.Complete && handRes.Complete) && srcRes.Stats.Executions != handRes.Stats.Executions {
				t.Errorf("execution count mismatch: source %d, hand-ported %d",
					srcRes.Stats.Executions, handRes.Stats.Executions)
			}

			// Tokens replay against the program they came from...
			for _, b := range srcRes.Bugs[:1] {
				rres, err := core.Replay(b.ReproToken, cfg, srcProg)
				if err != nil {
					t.Fatalf("Replay(source token, source program): %v", err)
				}
				if !containsBug(rres, b) {
					t.Errorf("source token replay did not reproduce %s", b.Message)
				}
			}
			// ...and cross-replay against the other implementation: the
			// setup streams are identical, so the program digests agree.
			for _, b := range handRes.Bugs[:1] {
				rres, err := core.Replay(b.ReproToken, cfg, srcProg)
				if err != nil {
					t.Fatalf("Replay(hand-ported token, source program): %v", err)
				}
				if !containsBug(rres, b) {
					t.Errorf("cross-replay (hand token on source program) did not reproduce %s", b.Message)
				}
			}
			for _, b := range srcRes.Bugs[:1] {
				rres, err := core.Replay(b.ReproToken, cfg, handProg)
				if err != nil {
					t.Fatalf("Replay(source token, hand-ported program): %v", err)
				}
				if !containsBug(rres, b) {
					t.Errorf("cross-replay (source token on hand program) did not reproduce %s", b.Message)
				}
			}
		})
	}
}

func containsBug(res *core.Result, want core.Bug) bool {
	for _, b := range res.Bugs {
		if b.Kind == want.Kind && b.Message == want.Message {
			return true
		}
	}
	return false
}
