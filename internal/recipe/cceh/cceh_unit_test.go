package cceh

import (
	"strings"
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
	"repro/internal/recipe/recipetest"
)

// TestFunctionalSingleMachine inserts and looks up many keys with no
// failures explored (single execution) to validate plain correctness,
// including splits and directory doubling.
func TestFunctionalSingleMachine(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		c := New(p, 0)
		a.Thread("t", func(th *cxlmc.Thread) {
			c.Init(th)
			for k := uint64(1); k <= 40; k++ {
				c.Insert(th, k, recipe.Value(k))
			}
			for k := uint64(1); k <= 40; k++ {
				v, ok := c.Lookup(th, k)
				th.Assert(ok, "key %d missing", k)
				th.Assert(v == recipe.Value(k), "key %d: value %#x", k, v)
			}
			_, ok := c.Lookup(th, 999)
			th.Assert(!ok, "phantom key")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

func TestAllBugsDetected(t *testing.T) { recipetest.DetectAll(t, Benchmark) }

func TestFunctionalWithDeletes(t *testing.T) { recipetest.Functional(t, Benchmark, 40) }

func TestFixedCleanWithDeletes(t *testing.T) { recipetest.FixedClean(t, Benchmark, 6, true) }

// TestDirectoryDoubling forces enough splits to double the directory
// several times and checks routing stays exact.
func TestDirectoryDoubling(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		c := New(p, 0)
		a.Thread("t", func(th *cxlmc.Thread) {
			c.Init(th)
			const n = 120
			for k := uint64(1); k <= n; k++ {
				c.Insert(th, k, recipe.Value(k))
			}
			for k := uint64(1); k <= n; k++ {
				v, ok := c.Lookup(th, k)
				th.Assert(ok, "key %d missing after doubling", k)
				th.Assert(v == recipe.Value(k), "key %d value", k)
			}
			for k := uint64(1); k <= n; k += 2 {
				th.Assert(c.Delete(th, k), "delete %d", k)
			}
			for k := uint64(1); k <= n; k++ {
				_, ok := c.Lookup(th, k)
				th.Assert(ok == (k%2 == 0), "key %d presence", k)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// TestSplitRecoveryUnderCrashes verifies the journaled split end to end:
// with enough keys to force splits on both machines, full exploration of
// every partial-failure interleaving stays consistent (this is the
// scenario whose unjournaled version lost keys).
func TestSplitRecoveryUnderCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("split-recovery sweep in short mode")
	}
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 2_000_000},
		recipe.Program(Benchmark, recipe.Config{Keys: 20, Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !res.Complete {
		t.Fatalf("incomplete after %d executions", res.Executions)
	}
	t.Logf("keys=20: %d execs, %d fpoints (%v)", res.Executions, res.FailurePoints, res.Elapsed)
}

// TestKeysBeyondMaxRefused: the driver sizes a progress flag per key, so a
// key count over recipe.MaxKeys — 1<<61 among them, whose byte size wraps
// to 0 — fails set-up before anything is allocated, whoever passes it.
func TestKeysBeyondMaxRefused(t *testing.T) {
	for _, keys := range []int{recipe.MaxKeys + 1, 1 << 61} {
		_, err := cxlmc.Run(cxlmc.Config{Workers: 1}, recipe.Program(Benchmark, recipe.Config{Keys: keys}))
		if err == nil || !strings.Contains(err.Error(), "keys") {
			t.Errorf("Keys %d: Run returned %v, want a set-up error naming keys", keys, err)
		}
	}
}
