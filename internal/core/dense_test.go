package core

import (
	"runtime"
	"testing"
)

// TestSparseRegionTablesStaySmall: a program that allocates the whole
// default region and touches its first and last cache line costs a worker
// the line index (one int32 per line, 1 MiB) and two line records — not a
// table row per line of the region. Measured from inside the execution,
// while the worker's tables are live.
func TestSparseRegionTablesStaySmall(t *testing.T) {
	var base, live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	res := run(t, Config{Workers: 1, MaxExecutions: 1, RaceDetect: SwitchOn, Poison: true}, func(p *Program) {
		const size = 16<<20 - uint64(heapBase)
		first := p.Alloc(size)
		last := first + Addr(size) - 8
		p.Init64(last, 7)
		p.NewMachine("A").Thread("t", func(th *Thread) {
			th.Store64(first, 1)
			th.Store64(last, 2)
			th.CLFlush(last)
			th.MFence()
			if th.Load64(first) != 1 || th.Load64(last) != 2 {
				th.Fail("lost a store without a failure")
			}
			runtime.GC()
			runtime.ReadMemStats(&live)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	grew := int64(live.HeapAlloc) - int64(base.HeapAlloc)
	t.Logf("heap held mid-execution: %d bytes over the baseline", grew)
	if grew > 2<<20 {
		t.Fatalf("a worker exploring a sparse 16 MiB region holds %d bytes of heap, want at most 2 MiB", grew)
	}
}

// TestRaceHooksAllocateNothing: once a word has a history entry, checking
// and recording plain accesses to it allocates nothing.
func TestRaceHooksAllocateNothing(t *testing.T) {
	allocs := -1.0
	res := run(t, Config{Workers: 1, MaxExecutions: 1, RaceDetect: SwitchOn}, func(p *Program) {
		x := p.Alloc(16)
		p.NewMachine("A").Thread("t", func(th *Thread) {
			th.Store64(x, 1)
			_ = th.Load64(x + 4) // straddles two words
			allocs = testing.AllocsPerRun(100, func() {
				th.ck.raceRead(th, x+4, 8)
				th.ck.raceWrite(th, x, 8)
			})
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if allocs != 0 {
		t.Fatalf("raceRead+raceWrite on known words: %v allocs per run, want 0", allocs)
	}
}
