// Package recipetest provides shared helpers for the per-structure test
// suites: functional drivers, bug-detection loops and fixed-version
// exploration sweeps, so each structure package tests itself uniformly.
package recipetest

import (
	"fmt"
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
)

// Functional runs a single-machine, single-execution workload against a
// fresh instance: insert keys 1..n (descending), look them all up, delete
// every third, verify, and scan if supported.
func Functional(t *testing.T, b recipe.Benchmark, n int) {
	t.Helper()
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 1}, func(p *cxlmc.Program) {
		m := p.NewMachine("M")
		idx := b.New(p, 0)
		m.Thread("t", func(th *cxlmc.Thread) {
			idx.Init(th)
			for k := n; k >= 1; k-- {
				idx.Insert(th, uint64(k), recipe.Value(uint64(k)))
			}
			for k := 1; k <= n; k++ {
				v, ok := idx.Lookup(th, uint64(k))
				th.Assert(ok, "key %d missing", k)
				th.Assert(v == recipe.Value(uint64(k)), "key %d: value %#x", k, v)
			}
			if del, ok := idx.(recipe.Deleter); ok {
				for k := 3; k <= n; k += 3 {
					th.Assert(del.Delete(th, uint64(k)), "delete %d failed", k)
				}
				th.Assert(!del.Delete(th, 9999), "phantom delete")
				for k := 1; k <= n; k++ {
					_, ok := idx.Lookup(th, uint64(k))
					if k%3 == 0 {
						th.Assert(!ok, "deleted key %d still present", k)
					} else {
						th.Assert(ok, "key %d lost by unrelated delete", k)
					}
				}
			}
			if sc, ok := idx.(recipe.Scanner); ok {
				ks, vs := sc.Scan(th)
				for i := range ks {
					if i > 0 {
						th.Assert(ks[i] > ks[i-1], "scan disorder at %d", i)
					}
					th.Assert(vs[i] == recipe.Value(ks[i]), "scan value for %d", ks[i])
					th.Assert(ks[i]%3 != 0, "deleted key %d in scan", ks[i])
				}
			}
			_, ok := idx.Lookup(th, 9999)
			th.Assert(!ok, "phantom key")
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Buggy() {
		t.Fatalf("functional run buggy: %v", res.Bugs)
	}
}

// DetectAll asserts every seeded bug of the benchmark is found by the
// checker under its designated hunt configuration.
func DetectAll(t *testing.T, b recipe.Benchmark) {
	t.Helper()
	for _, bi := range b.Bugs {
		bi := bi
		t.Run(fmt.Sprintf("bug%02d", bi.Table), func(t *testing.T) {
			cfg := recipe.Config{Keys: bi.Keys, Workers: bi.Workers, Stride: bi.Stride, Bugs: bi.Bit}
			res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 300000}, recipe.Program(b, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Buggy() {
				t.Fatalf("bug #%d (%s) not detected in %d executions", bi.Table, bi.Desc, res.Executions)
			}
		})
	}
}

// FixedClean asserts a complete, bug-free exploration of the fixed
// structure at the given size.
func FixedClean(t *testing.T, b recipe.Benchmark, keys int, deletes bool) {
	t.Helper()
	res, err := cxlmc.Run(cxlmc.Config{MaxExecutions: 2_000_000},
		recipe.Program(b, recipe.Config{Keys: keys, Deletes: deletes}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Buggy() {
		t.Fatalf("fixed version buggy: %v", res.Bugs)
	}
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d executions", res.Executions)
	}
}
