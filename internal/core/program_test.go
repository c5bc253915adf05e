package core

import (
	"runtime"
	"testing"
)

// TestSetupAllocatesNothing: once an execution has sized the checker's
// pools, a native program's set-up — machines, threads, a mutex,
// allocations and initial writes — allocates nothing. The program digest
// is taken by a separate set-up run, so the per-execution one records no
// fingerprint.
func TestSetupAllocatesNothing(t *testing.T) {
	var x, y Addr
	var mu *Mutex
	writer := func(th *Thread) {
		mu.Lock(th)
		th.Store64(x, 1)
		th.CLFlush(x)
		mu.Unlock(th)
		th.Store64(y, 2)
		th.CLFlush(y)
	}
	reader := func(th *Thread) {
		mu.Lock(th)
		_ = th.Load64(x)
		mu.Unlock(th)
	}
	var mallocs []uint64
	var before, after runtime.MemStats
	res := run(t, Config{}, func(p *Program) {
		runtime.ReadMemStats(&before)
		a, b := p.NewMachine("A"), p.NewMachine("B")
		mu = p.NewMutex("mu")
		x, y = p.AllocAligned(8, 64), p.Alloc(8)
		p.Init64(y, 7)
		a.Thread("w", writer)
		b.Thread("r", reader)
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, after.Mallocs-before.Mallocs)
	})
	if res.Executions < 3 {
		t.Fatalf("explored %d executions, want a few", res.Executions)
	}
	// The first set-up is the digest's, the second the first execution's.
	for i, n := range mallocs[2:] {
		if n != 0 {
			t.Errorf("execution %d's set-up made %d allocations, want 0 (all: %v)", i+2, n, mallocs)
			break
		}
	}
}
