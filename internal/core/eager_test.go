package core_test

// The lazy §4.5 read-from search held to its reference, the eager
// Algorithm 3 path, through the test-only WithEagerReadSet hook.

import (
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/progir"
)

// TestPropertyLazyEagerEquivalent: the §4.5 lazy search and the eager
// Algorithm 3 set produce identical outcome sets and execution counts, on
// fifty generated programs of one writer of up to 12 ops over up to four
// cells two to a line.
func TestPropertyLazyEagerEquivalent(t *testing.T) {
	explore := func(cfg core.Config, p *progir.Program) (map[string]bool, *core.Result) {
		t.Helper()
		set, res, err := harness.Outcomes(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return set, res
	}
	for trial, seed := 0, int64(0); trial < 50; seed++ {
		p := progir.Generate(seed, progir.GenConfig{MaxMachines: 1, MaxThreadsPerMachine: 1,
			MaxOpsPerThread: 12, MaxCells: 4, FlushBudget: 12})
		if p.Pattern {
			continue // its observer asserts
		}
		trial++
		p.Lines = make([]int, p.Cells)
		for c := range p.Lines {
			p.Lines[c] = c / 2
		}
		lazy, rl := explore(core.Config{}, p)
		eager, re := explore(core.WithEagerReadSet(core.Config{}), p)
		if !maps.Equal(lazy, eager) {
			t.Fatalf("seed %d: lazy %v vs eager %v", seed, lazy, eager)
		}
		if rl.Executions != re.Executions {
			t.Fatalf("seed %d: lazy %d execs vs eager %d", seed, rl.Executions, re.Executions)
		}
	}
}

// TestPropertyCompletenessDroppedFlushEager repeats the dropped-flush
// completeness sweep under the eager Algorithm 3 read path: an unflushed
// datum behind a flushed flag, and a four-record commit-store log with each
// record's data flush dropped in turn, must all be reported buggy.
func TestPropertyCompletenessDroppedFlushEager(t *testing.T) {
	eager := func(prog func(*core.Program)) *core.Result {
		t.Helper()
		res, err := core.Run(core.WithEagerReadSet(core.Config{MaxExecutions: 200000}), prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := eager(func(p *core.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.Alloc(8)
		flag := p.AllocAligned(8, 64)
		a.Thread("w", func(th *core.Thread) {
			th.Store64(data, 42)
			th.Store64(flag, 1)
			th.CLFlush(flag)
			th.SFence()
		})
		b.Thread("r", func(th *core.Thread) {
			th.Join(a)
			if th.Load64(flag) == 1 {
				th.Assert(th.Load64(data) == 42, "lost")
			}
		})
	})
	if !res.Buggy() {
		t.Fatal("eager path missed the dropped flush")
	}

	const records = 4
	for dropped := 0; dropped < records; dropped++ {
		res := eager(func(p *core.Program) {
			a := p.NewMachine("A")
			b := p.NewMachine("B")
			data := make([]core.Addr, records)
			flags := make([]core.Addr, records)
			for i := range data {
				data[i] = p.AllocAligned(8, 64)
				flags[i] = p.AllocAligned(8, 64)
			}
			a.Thread("w", func(th *core.Thread) {
				for i := 0; i < records; i++ {
					th.Store64(data[i], uint64(i)+100)
					if i != dropped {
						th.CLFlush(data[i])
						th.SFence()
					}
					th.Store64(flags[i], 1)
					th.CLFlush(flags[i])
					th.SFence()
				}
			})
			b.Thread("r", func(th *core.Thread) {
				th.Join(a)
				for i := 0; i < records; i++ {
					if th.Load64(flags[i]) == 1 {
						v := th.Load64(data[i])
						th.Assert(v == uint64(i)+100, "record %d committed but data %d", i, v)
					}
				}
			})
		})
		if !res.Buggy() {
			t.Fatalf("eager path missed the dropped flush of record %d", dropped)
		}
	}
}
