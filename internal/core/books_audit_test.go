package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/recipe"
)

// TestAuditedBooks runs, with the scheduler's books audited at every step
// (books_test.go's TestMain), the shapes that change a thread's bits the
// most ways: the twelve Table 5 rows, generated programs with mutexes,
// locked RMWs and joins, and seventy threads — more than one word of
// either set — that block on joins and end with stores still buffered.
func TestAuditedBooks(t *testing.T) {
	audited := func(name string, cfg core.Config, prog func(*core.Program)) {
		t.Helper()
		before := core.AuditedSteps()
		res, err := core.Run(cfg, prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := core.AuditedSteps() - before; got < int64(res.Steps) {
			t.Fatalf("%s: %d steps audited, the run took %d", name, got, res.Steps)
		}
	}
	for _, b := range harness.Benchmarks {
		for _, gpf := range []bool{false, true} {
			audited(fmt.Sprintf("%s gpf=%v", b.Name, gpf), core.Config{GPF: gpf, Workers: 1},
				recipe.Program(b, harness.Table5Config()))
		}
	}
	gc := harness.GenConfig{MaxMachines: 3, MaxThreadsPerMachine: 3, MaxOpsPerThread: 6}
	for seed := int64(0); seed < 300; seed++ {
		audited(fmt.Sprintf("generated seed %d", seed),
			core.Config{Workers: 1, MaxExecutions: 500, ContinueAfterBug: true}, harness.Generate(seed, gc))
	}
	for _, workers := range []int{1, 2} {
		audited(fmt.Sprintf("seventy threads, %d workers", workers),
			core.Config{Workers: workers, MaxExecutions: 300, ContinueAfterBug: true}, seventyThreads)
	}
}

// seventyThreads: machine A's 35 writers each leave two stores to their own
// word buffered when they end, the first also flushing its word so A can
// fail; machine B's 35 readers each wait for their writer (JoinThreads), the
// last for the whole of A (Join), and then load the word.
func seventyThreads(p *core.Program) {
	const n = 35
	a, b := p.NewMachine("A"), p.NewMachine("B")
	cells := p.AllocAligned(8*n, 64)
	writers := make([]*core.Thread, n)
	for i := range writers {
		c := cells + core.Addr(8*i)
		writers[i] = a.Thread(fmt.Sprintf("w%d", i), func(th *core.Thread) {
			th.Store64(c, uint64(i+1))
			if i == 0 {
				th.CLFlush(c)
			}
			th.Store64(c, uint64(i+2))
		})
	}
	for i := range writers {
		c := cells + core.Addr(8*i)
		b.Thread(fmt.Sprintf("r%d", i), func(th *core.Thread) {
			if i == n-1 {
				th.Join(a)
			} else {
				th.JoinThreads(writers[i])
			}
			th.Load64(c)
		})
	}
}
