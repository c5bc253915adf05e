package part

import (
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
	"repro/internal/recipe/recipetest"
)

// TestFunctionalSingleMachine validates plain correctness across node
// growth (N4→N16→N256) and prefix splits, with no failures explored.
func TestFunctionalSingleMachine(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		art := New(p, 0)
		a.Thread("t", func(th *cxlmc.Thread) {
			art.Init(th)
			// 1..300 spans byte 6 and byte 7, forcing prefix splits and
			// all three node types.
			for k := uint64(1); k <= 300; k++ {
				art.Insert(th, k, recipe.Value(k))
			}
			for k := uint64(1); k <= 300; k++ {
				v, ok := art.Lookup(th, k)
				th.Assert(ok, "key %d missing", k)
				th.Assert(v == recipe.Value(k), "key %d: value %#x", k, v)
			}
			_, ok := art.Lookup(th, 999)
			th.Assert(!ok, "phantom key")
			// A key differing high up exercises deep prefix mismatch
			// handling.
			art.Insert(th, 1<<40, 7)
			v, ok := art.Lookup(th, 1<<40)
			th.Assert(ok && v == 7, "high key")
			for k := uint64(1); k <= 300; k++ {
				_, ok := art.Lookup(th, k)
				th.Assert(ok, "key %d lost after prefix split", k)
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

func TestAllBugsDetected(t *testing.T) { recipetest.DetectAll(t, Benchmark) }

func TestFunctionalWithDeletes(t *testing.T) { recipetest.Functional(t, Benchmark, 40) }

func TestFixedCleanWithDeletes(t *testing.T) { recipetest.FixedClean(t, Benchmark, 6, true) }

// TestPrefixSplitAndDeepKeys exercises path compression across byte
// boundaries with deletes mixed in.
func TestPrefixSplitAndDeepKeys(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		art := New(p, 0)
		a.Thread("t", func(th *cxlmc.Thread) {
			art.Init(th)
			keys := []uint64{1, 255, 256, 257, 1 << 16, 1<<16 + 1, 1 << 40, 1<<40 | 1<<8, 7}
			for _, k := range keys {
				art.Insert(th, k, recipe.Value(k))
			}
			for _, k := range keys {
				v, ok := art.Lookup(th, k)
				th.Assert(ok, "key %d missing", k)
				th.Assert(v == recipe.Value(k), "key %d value", k)
			}
			th.Assert(art.Delete(th, 256), "delete 256")
			_, ok := art.Lookup(th, 256)
			th.Assert(!ok, "256 still present")
			for _, k := range keys {
				if k == 256 {
					continue
				}
				_, ok := art.Lookup(th, k)
				th.Assert(ok, "key %d lost after delete", k)
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
