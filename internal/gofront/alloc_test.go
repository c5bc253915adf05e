package gofront_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gofront"
)

// ccehConfig is the exploration cxlbench's source_cceh workload runs:
// serial, every execution rather than up to the first bug.
var ccehConfig = core.Config{Workers: 1, ContinueAfterBug: true}

// TestSourceCCEHAllocBudget is the tier-1 ceiling on what an
// exploration of examples/src/cceh.go (54 executions, 14 196 steps)
// allocates, ~10 % over the count, next to the ceiling on its
// hand-ported twin's, which shares everything but the front-end: a
// regression in core shows on both, one in gofront on the first alone.
// The tree-walking interpreter compiled code replaced made 412 189
// allocations here, compiled code on fresh machines 13 952 (the twin
// then 3 172); on pooled machines 3 315 and the twin 2 205; with warm
// checkers and execution-scoped values from the arena it makes 1 308 and
// the twin 2 015 (most of the source's left are append's, and the boxes
// of the slices append returns). With the RECIPE workload's names and
// partitions built once per program, its passing checks boxing nothing
// and the structures' scratch on the stack, the twin makes 444. The race
// detector's sync.Pool drops a quarter of what is put back at random
// (about 5 400 and 450–600 under -race), so there the shape is checked
// the same but against looser race ceilings.
func TestSourceCCEHAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name         string
		prog         func(*core.Program)
		budget, race float64
	}{
		{"source", loadExampleCCEH(t), 1440, 6500},
		{"hand-ported", handPortedCCEH(), 490, 800},
	} {
		var res *core.Result
		allocs := testing.AllocsPerRun(3, func() {
			var err error
			if res, err = core.Run(ccehConfig, c.prog); err != nil {
				t.Fatalf("Run(%s): %v", c.name, err)
			}
		})
		if res.Stats.Executions != 54 || res.Stats.Steps != 14196 || len(res.Bugs) != 1 {
			t.Fatalf("%s: explored %d executions, %d steps, %d bugs; want 54, 14196, 1",
				c.name, res.Stats.Executions, res.Stats.Steps, len(res.Bugs))
		}
		budget := c.budget
		if raceEnabled {
			budget = c.race
		}
		if allocs > budget {
			t.Errorf("one %s CCEH exploration made %.0f allocations, budget %.0f", c.name, allocs, budget)
		}
	}
}

// spinSource is bench/testdata/loop.go's shape: a thread spinning an
// arithmetic loop with no memory events.
func spinSource(iterations int) string {
	return fmt.Sprintf(`package main

import "cxl"

const iterations = %d

func Program(r *cxl.Region) {
	cell := r.Alloc(8)
	m := r.NewMachine("m0")
	m.Spawn("spin", func() {
		var acc uint64
		for i := uint64(0); i < iterations; i++ {
			acc = acc*31 + i
		}
		cxl.Store64(cell, acc)
	})
}
`, iterations)
}

// TestCompiledLoopAllocatesNothing: an iteration of compiled code walks
// no syntax and boxes no integer, so a loop's allocations do not grow
// with its trip count.
func TestCompiledLoopAllocatesNothing(t *testing.T) {
	mallocsFor := func(iterations int) uint64 {
		prog, err := load(t, spinSource(iterations)).Program("Program")
		if err != nil {
			t.Fatalf("Program: %v", err)
		}
		cfg := core.Config{Workers: 1, MaxExecutions: 1}
		if _, err := core.Run(cfg, prog); err != nil { // warm the checker's pools
			t.Fatalf("Run: %v", err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := core.Run(cfg, prog); err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	short, long := mallocsFor(10), mallocsFor(10000)
	if long > short+50 {
		t.Errorf("a 10000-iteration loop made %d allocations, a 10-iteration one %d: the loop body allocates", long, short)
	}
}

func BenchmarkSourceCCEH(b *testing.B) {
	prog := loadExampleCCEH(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(ccehConfig, prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSourceCCEHSetup is one set-up pass of cxlbench's source_cceh
// workload: read, load and compile examples/src/cceh.go, then explore the
// fresh program once (the warm-up op). The workload's setup_s is its
// fastest pass plus the child process's start latency; this times the pass
// alone, so a move in setup_s can be told from one in process start.
func BenchmarkSourceCCEHSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(ccehConfig, loadExampleCCEH(b)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHandPortedCCEH(b *testing.B) {
	prog := handPortedCCEH()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(ccehConfig, prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpinLoop(b *testing.B) {
	s, err := gofront.Load("loop.go", []byte(spinSource(100000)))
	if err != nil {
		b.Fatal(err)
	}
	prog, err := s.Program("Program")
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Workers: 1, MaxExecutions: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg, prog); err != nil {
			b.Fatal(err)
		}
	}
}
