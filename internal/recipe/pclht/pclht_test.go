package pclht_test

import (
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
	"repro/internal/recipe/pclht"
	"repro/internal/recipe/recipetest"
)

func TestFunctional(t *testing.T) { recipetest.Functional(t, pclht.Benchmark, 40) }

func TestAllBugsDetected(t *testing.T) { recipetest.DetectAll(t, pclht.Benchmark) }

func TestFixedClean(t *testing.T) { recipetest.FixedClean(t, pclht.Benchmark, 10, false) }

func TestFixedCleanWithDeletes(t *testing.T) {
	recipetest.FixedClean(t, pclht.Benchmark, 6, true)
}

// TestOverflowChains fills buckets far past three slots so chained
// overflow buckets are exercised, then deletes through the chains.
func TestOverflowChains(t *testing.T) {
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		m := p.NewMachine("M")
		c := pclht.New(p, 0)
		m.Thread("t", func(th *cxlmc.Thread) {
			c.Init(th)
			const n = 100 // ≫ 8 buckets × 3 slots
			for k := uint64(1); k <= n; k++ {
				c.Insert(th, k, recipe.Value(k))
			}
			for k := uint64(1); k <= n; k++ {
				v, ok := c.Lookup(th, k)
				th.Assert(ok && v == recipe.Value(k), "key %d after chaining", k)
			}
			for k := uint64(2); k <= n; k += 2 {
				th.Assert(c.Delete(th, k), "delete %d", k)
			}
			for k := uint64(1); k <= n; k++ {
				_, ok := c.Lookup(th, k)
				th.Assert(ok == (k%2 == 1), "key %d presence after deletes", k)
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
