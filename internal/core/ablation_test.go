package core_test

// Ablations of what only tests can set, on the Table 5 CCEH workload: the
// read path (WithEagerReadSet) and the store-buffer drain bias
// (WithCommitChance).

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
)

// exploreEach runs one full exploration of CCEH at Table 5's size per
// iteration and reports the paper's metrics for the last.
func exploreEach(b *testing.B, cfg core.Config) {
	prog := recipe.Program(cceh.Benchmark, recipe.Config{Keys: 10, Workers: 1})
	var last *core.Result
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Executions), "execs-per-exploration")
	b.ReportMetric(float64(last.FailurePoints), "fpoints")
	b.ReportMetric(float64(last.ReadFromPoints), "rfpoints")
	b.ReportMetric(float64(last.Steps), "steps")
}

// BenchmarkAblationReadSet compares the paper's §4.5 lazy read-from search
// against eagerly materializing the full Algorithm 3 set: same exploration,
// different per-load cost.
func BenchmarkAblationReadSet(b *testing.B) {
	b.Run("lazy", func(b *testing.B) { exploreEach(b, core.Config{}) })
	b.Run("eager", func(b *testing.B) { exploreEach(b, core.WithEagerReadSet(core.Config{})) })
}

// BenchmarkAblationCommitChance sweeps the store-buffer drain bias: the
// knob controlling how long TSO reorder windows stay open in the fixed
// schedule.
func BenchmarkAblationCommitChance(b *testing.B) {
	for _, chance := range []int{10, 25, 50, 75} {
		b.Run(fmt.Sprintf("chance%02d", chance), func(b *testing.B) {
			exploreEach(b, core.WithCommitChance(core.Config{}, chance))
		})
	}
}
