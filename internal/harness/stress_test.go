package harness

import (
	"testing"
)

// TestGenerateIsDeterministic: the same seed must yield byte-identical
// explorations — the property every other stress invariant rests on.
func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := StressOne(seed, StressOptions{})
		b := StressOne(seed, StressOptions{})
		if len(a.Violations) > 0 {
			t.Fatalf("seed %d: %v", seed, a.Violations)
		}
		if a.Executions != b.Executions || a.Bugs != b.Bugs || a.Complete != b.Complete {
			t.Fatalf("seed %d not deterministic: %+v vs %+v", seed, a, b)
		}
	}
}

// TestGeneratedProgramsFindBugs: across a modest seed range the
// generator must plant some genuine crash-consistency bugs (the
// missing-flush pattern) and some clean protocols — otherwise the swarm
// is not exercising the bug-reporting and token-replay machinery.
func TestGeneratedProgramsFindBugs(t *testing.T) {
	buggy, clean := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		sr := StressOne(seed, StressOptions{})
		if len(sr.Violations) > 0 {
			t.Fatalf("seed %d: %v", seed, sr.Violations)
		}
		if sr.Bugs > 0 {
			buggy++
		} else {
			clean++
		}
	}
	if buggy == 0 || clean == 0 {
		t.Fatalf("degenerate swarm: %d buggy, %d clean of 30", buggy, clean)
	}
}

// TestStressSwarm is the main self-fuzzing gate: a few hundred seeded
// programs, each checked for panic-freedom, serial/parallel parity and
// token replayability; a sample also runs the interrupt-and-resume-
// under-chaos leg. Zero violations required.
func TestStressSwarm(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	if bad := Swarm(nil, 1000, n, StressOptions{}); len(bad) > 0 {
		for _, sr := range bad {
			t.Errorf("seed %d: %v", sr.Seed, sr.Violations)
		}
	}

	chaosN := 12
	if testing.Short() {
		chaosN = 4
	}
	if bad := Swarm(nil, 5000, chaosN, StressOptions{Chaos: true, ChaosDir: t.TempDir()}); len(bad) > 0 {
		for _, sr := range bad {
			t.Errorf("chaos seed %d: %v", sr.Seed, sr.Violations)
		}
	}
}

// FuzzRandomProgram lets the native fuzzer drive the generator seed:
// every input must uphold the checker invariants. The corpus seeds keep
// `go test` (non-fuzz) coverage meaningful.
func FuzzRandomProgram(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sr := StressOne(seed, StressOptions{MaxExecutions: 5000})
		for _, v := range sr.Violations {
			t.Errorf("seed %d: %s", seed, v)
		}
	})
}

// TestSwarmWithFewCells: one or two cells leave no room for the planted
// pattern's two cells and a random one, so the generator leaves the
// pattern out; three cells take it.
func TestSwarmWithFewCells(t *testing.T) {
	for cells := 1; cells <= 3; cells++ {
		for _, sr := range Swarm(nil, 0, 30, StressOptions{Gen: GenConfig{MaxCells: cells}}) {
			t.Errorf("cells=%d seed %d: %v", cells, sr.Seed, sr.Violations)
		}
	}
}
