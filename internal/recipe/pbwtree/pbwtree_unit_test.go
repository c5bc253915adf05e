package pbwtree

import (
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
	"repro/internal/recipe/recipetest"
)

// TestFunctionalSingleMachine validates plain correctness across delta
// chains, consolidation and GC, with no failures explored.
func TestFunctionalSingleMachine(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		bw := New(p, 0)
		a.Thread("t", func(th *cxlmc.Thread) {
			bw.Init(th)
			for k := uint64(1); k <= 40; k++ {
				bw.Insert(th, k, recipe.Value(k))
			}
			for k := uint64(1); k <= 40; k++ {
				v, ok := bw.Lookup(th, k)
				th.Assert(ok, "key %d missing", k)
				th.Assert(v == recipe.Value(k), "key %d: value %#x", k, v)
			}
			// Updates: newest delta must win over base records.
			bw.Insert(th, 7, 777)
			v, ok := bw.Lookup(th, 7)
			th.Assert(ok && v == 777, "update lost: %d %v", v, ok)
			_, ok = bw.Lookup(th, 999)
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

func TestFunctionalWithDeletes(t *testing.T) { recipetest.Functional(t, Benchmark, 30) }

func TestFixedCleanWithDeletes(t *testing.T) { recipetest.FixedClean(t, Benchmark, 6, true) }

// TestDeleteDeltaAndConsolidation interleaves inserts and deletes so
// delete deltas survive (and are honoured by) consolidation.
func TestDeleteDeltaAndConsolidation(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		bw := New(p, 0)
		a.Thread("t", func(th *cxlmc.Thread) {
			bw.Init(th)
			for k := uint64(1); k <= 20; k++ {
				bw.Insert(th, k, recipe.Value(k))
				if k%4 == 0 {
					bw.Delete(th, k-1) // delete a recently inserted key
				}
			}
			for k := uint64(1); k <= 20; k++ {
				_, ok := bw.Lookup(th, k)
				deleted := k%4 == 3 && k <= 19
				th.Assert(ok == !deleted, "key %d presence (deleted=%v)", k, deleted)
			}
			// Re-insert a deleted key: the newer insert delta must win.
			bw.Insert(th, 3, 333)
			v, ok := bw.Lookup(th, 3)
			th.Assert(ok && v == 333, "re-insert after delete: %d %v", v, ok)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}
