package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// run is a test helper with small defaults.
func run(t *testing.T, cfg Config, prog func(*Program)) *Result {
	t.Helper()
	if cfg.MaxExecutions == 0 {
		cfg.MaxExecutions = 100000
	}
	// Serial unless the test says otherwise: the programs record what they
	// observe into slices and maps their thread closures capture, which
	// parallel workers (the default is GOMAXPROCS) would write concurrently,
	// and several compare execution counts of bug-aborted runs, which only
	// a serial run pins (see core.Stats).
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	res, err := Run(cfg, prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleThreadNoCrashSingleExecution(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("t", func(th *Thread) {
			th.Store64(x, 7)
			th.Assert(th.Load64(x) == 7, "bypass must return own store")
			th.MFence()
			th.Assert(th.Load64(x) == 7, "committed store must be visible")
		})
	})
	if res.Buggy() {
		t.Fatalf("unexpected bugs: %v", res.Bugs)
	}
	if res.Executions != 1 || !res.Complete {
		t.Fatalf("executions = %d complete=%v, want 1/true", res.Executions, res.Complete)
	}
}

func TestLoadSizesAndInit(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		p.Init64(x, 0x8877665544332211)
		a.Thread("t", func(th *Thread) {
			th.Assert(th.Load8(x) == 0x11, "load8")
			th.Assert(th.Load16(x) == 0x2211, "load16")
			th.Assert(th.Load32(x) == 0x44332211, "load32")
			th.Assert(th.Load64(x) == 0x8877665544332211, "load64")
			th.Assert(th.Load8(x+7) == 0x88, "load8 high byte")
			th.Store16(x+2, 0xBEEF)
			th.Assert(th.Load64(x) == 0x88776655BEEF2211, "mixed-size merge")
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// TestExhaustiveCrashStates is the core completeness property: a reader on
// another machine must observe every crash-consistent value of an
// unflushed sequence of stores.
func TestExhaustiveCrashStates(t *testing.T) {
	observed := map[uint64]bool{}
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 1)
			th.Store64(x, 2)
			th.Store64(x, 3)
			th.MFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			observed[th.Load64(x)] = true
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !res.Complete {
		t.Fatal("exploration incomplete")
	}
	want := map[uint64]bool{0: true, 1: true, 2: true, 3: true}
	if !reflect.DeepEqual(observed, want) {
		t.Fatalf("observed = %v, want all of 0..3", observed)
	}
}

// TestCommitStorePattern checks the paper's §3.2 claim: the commit-store
// pattern needs only a failure-before-commit-flush execution and a
// no-failure execution, so exploration stays small and the observable
// states are exactly "nothing" or "everything".
func TestCommitStorePattern(t *testing.T) {
	type obs struct{ committed, data uint64 }
	var seen []obs
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.Alloc(8)
		committed := p.AllocAligned(8, 64) // separate cache line
		a.Thread("w", func(th *Thread) {
			th.Store64(data, 42)
			th.CLFlush(data)
			th.SFence()
			th.Store64(committed, 1)
			th.CLFlush(committed)
			th.SFence()
			th.MFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			c := th.Load64(committed)
			d := th.Load64(data)
			seen = append(seen, obs{c, d})
			if c == 1 {
				th.Assert(d == 42, "committed flag set but data lost (c=%d d=%d)", c, d)
			}
		})
	})
	if res.Buggy() {
		t.Fatalf("commit-store pattern must be crash consistent: %v", res.Bugs)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
	// Both outcomes must occur.
	sawCommitted, sawLost := false, false
	for _, o := range seen {
		if o.committed == 1 {
			sawCommitted = true
		} else {
			sawLost = true
		}
	}
	if !sawCommitted || !sawLost {
		t.Fatalf("missing outcomes: %+v", seen)
	}
	if res.FailurePoints == 0 {
		t.Fatal("expected failure-injection points at the flushes")
	}
}

// TestMissingFlushBugDetected is the canonical missing-flush bug: the
// commit flag is flushed but the data is not, so a crash can expose
// committed=1 with stale data.
func TestMissingFlushBugDetected(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.Alloc(8)
		committed := p.AllocAligned(8, 64) // separate cache line
		a.Thread("w", func(th *Thread) {
			th.Store64(data, 42)
			// BUG: no flush of data before publishing.
			th.Store64(committed, 1)
			th.CLFlush(committed)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			if th.Load64(committed) == 1 {
				th.Assert(th.Load64(data) == 42, "data lost despite commit flag")
			}
		})
	})
	if !res.Buggy() {
		t.Fatal("missing-flush bug not detected")
	}
	if res.Bugs[0].Kind != BugAssertion {
		t.Fatalf("bug kind = %v", res.Bugs[0].Kind)
	}
}

// TestGPFMasksMissingFlushBug mirrors §6.2: with an always-successful
// global persistent flush the same program is bug-free.
func TestGPFMasksMissingFlushBug(t *testing.T) {
	prog := func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.Alloc(8)
		committed := p.AllocAligned(8, 64) // separate cache line
		a.Thread("w", func(th *Thread) {
			th.Store64(data, 42)
			th.Store64(committed, 1)
			th.CLFlush(committed)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			if th.Load64(committed) == 1 {
				th.Assert(th.Load64(data) == 42, "data lost despite commit flag")
			}
		})
	}
	if res := run(t, Config{GPF: true}, prog); res.Buggy() {
		t.Fatalf("GPF mode must mask cache-loss bugs: %v", res.Bugs)
	}
	if res := run(t, Config{}, prog); !res.Buggy() {
		t.Fatal("non-GPF run must find the bug")
	}
}

func TestConsecutiveLoadsConsistent(t *testing.T) {
	// §3.3: once a post-failure load picks a value, later loads of the
	// same location agree.
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 1)
			th.Store64(x, 2)
			th.CLFlushOpt(x)
			th.SFence()
			th.Store64(x, 3)
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			v1 := th.Load64(x)
			v2 := th.Load64(x)
			th.Assert(v1 == v2, "inconsistent consecutive loads: %d then %d", v1, v2)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
}

func TestSegfaultOnNullDeref(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		a.Thread("t", func(th *Thread) {
			th.Load64(0)
		})
	})
	if !res.Buggy() || res.Bugs[0].Kind != BugSegfault {
		t.Fatalf("bugs = %v, want a segfault", res.Bugs)
	}
}

func TestSegfaultOnWildPointer(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		p.Alloc(64)
		a.Thread("t", func(th *Thread) {
			th.Store64(1<<30, 1)
		})
	})
	if !res.Buggy() || res.Bugs[0].Kind != BugSegfault {
		t.Fatalf("bugs = %v, want a segfault", res.Bugs)
	}
}

func TestRuntimePanicReported(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("t", func(th *Thread) {
			d := th.Load64(x) // zero
			_ = 100 / d
		})
	})
	if !res.Buggy() || res.Bugs[0].Kind != BugPanic {
		t.Fatalf("bugs = %v, want a panic", res.Bugs)
	}
}

func TestDeadlockDetected(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		mu1 := p.NewMutex("m1")
		mu2 := p.NewMutex("m2")
		// Host-side handshake flags force the circular-wait interleaving
		// regardless of the seeded schedule.
		t1has, t2has := false, false
		a.Thread("t1", func(th *Thread) {
			mu1.Lock(th)
			t1has = true
			for !t2has {
				th.Yield()
			}
			mu2.Lock(th)
		})
		a.Thread("t2", func(th *Thread) {
			mu2.Lock(th)
			t2has = true
			for !t1has {
				th.Yield()
			}
			mu1.Lock(th)
		})
	})
	if !res.Buggy() || res.Bugs[0].Kind != BugDeadlock {
		t.Fatalf("bugs = %v, want a deadlock", res.Bugs)
	}
}

func TestMutexMutualExclusionAndHandoff(t *testing.T) {
	res := run(t, Config{Seed: 3}, func(p *Program) {
		a := p.NewMachine("A")
		mu := p.NewMutex("m")
		counter := p.Alloc(8)
		for i := 0; i < 3; i++ {
			a.Thread(fmt.Sprintf("t%d", i), func(th *Thread) {
				for j := 0; j < 2; j++ {
					mu.Lock(th)
					v := th.Load64(counter)
					th.Yield() // invite interleaving inside the section
					th.Store64(counter, v+1)
					th.MFence()
					mu.Unlock(th)
				}
			})
		}
		b := p.NewMachine("B")
		b.Thread("check", func(th *Thread) {
			th.Join(a)
			v := th.Load64(counter)
			if a.Failed() {
				// A may fail concurrently with the check (the partial
				// failure model): then only a prefix of increments is
				// guaranteed visible.
				th.Assert(v <= 6, "counter overshot: %d", v)
				return
			}
			th.Assert(v == 6, "lost update: counter = %d", v)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

func TestMutexReleasedOnMachineFailure(t *testing.T) {
	sawOwnerFailed := false
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		mu := p.NewMutex("m")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			mu.Lock(th)
			th.Store64(x, 1)
			th.CLFlush(x)
			th.MFence() // drains in-thread: A can die at the flush while holding mu
			mu.Unlock(th)
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			if mu.Lock(th) {
				sawOwnerFailed = true
			}
			mu.Unlock(th)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !sawOwnerFailed {
		t.Fatal("no execution saw the mutex force-released by failure")
	}
}

func TestUnlockByNonOwnerIsBug(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		mu := p.NewMutex("m")
		a.Thread("t", func(th *Thread) {
			mu.Unlock(th)
		})
	})
	if !res.Buggy() {
		t.Fatal("unlock by non-owner must be a bug")
	}
}

func TestJoinFinishedMachine(t *testing.T) {
	order := []string{}
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		a.Thread("w", func(th *Thread) {
			order = append(order, "w")
		})
		b.Thread("r", func(th *Thread) {
			failed := th.Join(a)
			th.Assert(!failed, "A cannot fail: it has no flushes and B reads nothing")
			order = append(order, "r")
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if len(order) != 2 || order[0] != "w" || order[1] != "r" {
		t.Fatalf("order = %v", order)
	}
}

func TestTornMultiWordObjectObserved(t *testing.T) {
	// Two 8-byte fields on different cache lines, only one flushed: the
	// torn state (f1 new, f2 old) must be observable after a crash.
	torn := false
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		f1 := p.Alloc(8)
		f2 := p.AllocAligned(8, 64) // next line
		a.Thread("w", func(th *Thread) {
			th.Store64(f1, 1)
			th.Store64(f2, 1)
			th.CLFlush(f1)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			v1, v2 := th.Load64(f1), th.Load64(f2)
			if v1 == 1 && v2 == 0 {
				torn = true
			}
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !torn {
		t.Fatal("torn state not explored")
	}
}

func TestStraddlingStoreSplits(t *testing.T) {
	// An 8-byte store straddling a cache-line boundary is not atomic with
	// respect to crashes: one half can persist without the other.
	halves := map[uint64]bool{}
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		base := p.AllocAligned(128, 64)
		obj := base + 60 // straddles the line boundary at base+64
		a.Thread("w", func(th *Thread) {
			th.Store64(obj, 0xAAAAAAAABBBBBBBB)
			th.CLFlush(obj) // flushes first line only
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			halves[th.Load64(obj)] = true
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !halves[0x00000000BBBBBBBB] {
		t.Fatalf("half-persisted straddling store not observed: %x", keysOf(halves))
	}
	if !halves[0xAAAAAAAABBBBBBBB] {
		t.Fatalf("fully-persisted state not observed: %x", keysOf(halves))
	}
}

func keysOf(m map[uint64]bool) []uint64 {
	var out []uint64
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestCASAtomicityAndFenceSemantics(t *testing.T) {
	res := run(t, Config{Seed: 5}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		done := p.Alloc(8)
		for i := 0; i < 3; i++ {
			a.Thread(fmt.Sprintf("t%d", i), func(th *Thread) {
				for {
					cur := th.Load64(x)
					if _, ok := th.CAS64(x, cur, cur+1); ok {
						break
					}
					th.Yield()
				}
				th.FetchAdd64(done, 1)
			})
		}
		b := p.NewMachine("B")
		b.Thread("check", func(th *Thread) {
			th.Join(a)
			d := th.Load64(done)
			v := th.Load64(x)
			if a.Failed() {
				th.Assert(v <= 3 && d <= 3, "overshoot after failure: x=%d done=%d", v, d)
				return
			}
			th.Assert(d == 3, "not all finished: %d", d)
			th.Assert(v == 3, "CAS lost an increment: %d", v)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

func TestSwapAndFetchAdd32(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		y := p.Alloc(8)
		a.Thread("t", func(th *Thread) {
			th.Assert(th.Swap64(x, 9) == 0, "swap prev")
			th.Assert(th.Swap64(x, 11) == 9, "swap prev 2")
			th.Assert(th.FetchAdd32(y, 5) == 0, "fadd prev")
			th.Assert(th.Load32(y) == 5, "fadd result")
			p32, ok := th.CAS32(y, 5, 7)
			th.Assert(ok && p32 == 5, "cas32")
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

func TestDeterministicStats(t *testing.T) {
	prog := func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		y := p.AllocAligned(8, 64) // separate cache line
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 1)
			th.CLFlush(x)
			th.SFence()
			th.Store64(y, 2)
			th.CLFlushOpt(y)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			th.Load64(x)
			th.Load64(y)
		})
	}
	r1 := run(t, Config{Seed: 42}, prog)
	r2 := run(t, Config{Seed: 42}, prog)
	if r1.Executions != r2.Executions || r1.FailurePoints != r2.FailurePoints ||
		r1.ReadFromPoints != r2.ReadFromPoints || r1.Steps != r2.Steps {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", r1.Stats, r2.Stats)
	}
}

func TestMaxExecutionsCap(t *testing.T) {
	res, err := Run(Config{MaxExecutions: 3}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			for i := uint64(1); i <= 20; i++ {
				th.Store64(x, i)
			}
			th.MFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			th.Load64(x)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != 3 || res.Complete {
		t.Fatalf("executions = %d complete = %v", res.Executions, res.Complete)
	}
}

func TestSetupPanicIsError(t *testing.T) {
	_, err := Run(Config{}, func(p *Program) {
		panic("bad setup")
	})
	if err == nil {
		t.Fatal("setup panic must surface as an error")
	}
}

func TestPoisonModeFlagsLostLine(t *testing.T) {
	res := run(t, Config{Poison: true}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 1)
			th.Store64(x, 2)
			th.CLFlush(x)
			th.SFence()
			th.Store64(x, 3) // unflushed at the injected failure
			th.MFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			th.Load64(x)
		})
	})
	foundPoison := false
	for _, b := range res.Bugs {
		if b.Kind == BugPoison {
			foundPoison = true
		}
	}
	if !foundPoison {
		t.Fatalf("poison mode found no poison reads: %v", res.Bugs)
	}
}

func TestContinueAfterBugFindsMultiple(t *testing.T) {
	res := run(t, Config{ContinueAfterBug: true}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		flag := p.AllocAligned(8, 64) // separate cache line
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 1)
			th.Store64(flag, 1)
			th.CLFlush(flag)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			f := th.Load64(flag)
			v := th.Load64(x)
			th.Assert(!(f == 1 && v == 0), "bug A: flag without data")
			th.Assert(!(f == 0 && v == 1), "bug B: data without flag")
		})
	})
	if len(res.Bugs) < 2 {
		t.Fatalf("expected both distinct bugs, got %v", res.Bugs)
	}
}

func TestRemoteLoadForcesWriteback(t *testing.T) {
	// After B reads A's store while A is live, the store is persistent:
	// a later crash of A cannot revert it (Algorithm 4, lines 11-12).
	sawLive := false
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 42)
			th.MFence() // committed to A's cache, never flushed
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			v1 := th.Load64(x)
			if v1 == 42 && !a.Failed() {
				// Remote load from live A: CXL coherence wrote the line
				// back; even if A fails now the value is durable.
				sawLive = true
				v2 := th.Load64(x)
				th.Assert(v2 == 42, "store reverted after write-back: %d", v2)
			} else {
				// The only other branch fails A during the load and
				// reads the initial value.
				th.Assert(v1 == 0 && a.Failed(), "unexpected read %d (failed=%v)", v1, a.Failed())
				v2 := th.Load64(x)
				th.Assert(v2 == 0, "lost store resurrected: %d", v2)
			}
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !sawLive {
		t.Fatal("live-read branch not explored")
	}
}
