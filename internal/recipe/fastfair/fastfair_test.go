package fastfair_test

import (
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
	"repro/internal/recipe/fastfair"
	"repro/internal/recipe/recipetest"
)

func TestFunctional(t *testing.T) { recipetest.Functional(t, fastfair.Benchmark, 40) }

func TestAllBugsDetected(t *testing.T) { recipetest.DetectAll(t, fastfair.Benchmark) }

func TestFixedClean(t *testing.T) { recipetest.FixedClean(t, fastfair.Benchmark, 8, false) }

func TestFixedCleanWithDeletes(t *testing.T) {
	recipetest.FixedClean(t, fastfair.Benchmark, 6, true)
}

// TestSiblingChainAfterSplits checks the B-link property directly: after
// many splits, every key is reachable both top-down and along the leaf
// chain (the scan path).
func TestSiblingChainAfterSplits(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		m := p.NewMachine("M")
		tr := fastfair.New(p, 0)
		m.Thread("t", func(th *cxlmc.Thread) {
			tr.Init(th)
			// Interleave ascending and descending inserts to split on
			// both ends.
			for i := 0; i < 30; i++ {
				tr.Insert(th, uint64(1+i), recipe.Value(uint64(1+i)))
				tr.Insert(th, uint64(100-i), recipe.Value(uint64(100-i)))
			}
			ks, _ := tr.Scan(th)
			th.Assert(len(ks) == 60, "scan found %d keys, want 60", len(ks))
			for i := 1; i < len(ks); i++ {
				th.Assert(ks[i] > ks[i-1], "scan disorder")
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

// TestUpdateInPlace checks that re-inserting a key replaces its value.
func TestUpdateInPlace(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		m := p.NewMachine("M")
		tr := fastfair.New(p, 0)
		m.Thread("t", func(th *cxlmc.Thread) {
			tr.Init(th)
			tr.Insert(th, 5, 50)
			tr.Insert(th, 5, 51)
			v, ok := tr.Lookup(th, 5)
			th.Assert(ok, "key missing")
			// Packed records append a fresh record for the same key; the
			// first match must reflect one of the two committed values.
			th.Assert(v == 50 || v == 51, "impossible value %d", v)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}
