package cxlmc_test

import (
	"maps"
	"strings"
	"testing"

	cxlmc "repro"
	"repro/internal/harness"
	"repro/internal/progir"
)

func mustRun(t *testing.T, cfg cxlmc.Config, prog func(*cxlmc.Program)) *cxlmc.Result {
	t.Helper()
	if cfg.MaxExecutions == 0 {
		cfg.MaxExecutions = 200000
	}
	// Serial unless the test says otherwise: the programs record what they
	// observe into slices and maps their thread closures capture, which
	// parallel workers (the default is GOMAXPROCS) would write concurrently,
	// and several compare execution counts of bug-aborted runs, which only
	// a serial run pins (see core.Stats).
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	res, err := cxlmc.Run(cfg, prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// --- x86-TSO litmus tests over the public API ----------------------------

// TestLitmusStoreBuffering (SB): x=1; r1=y || y=1; r2=x. Under TSO both
// r1 and r2 may read 0 — the checker's fixed schedule plus commit
// non-determinism is not model checked, so we only require that no
// *impossible* outcome appears and the program is bug free.
func TestLitmusStoreBuffering(t *testing.T) {
	outcomes := map[[2]uint64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		mustRun(t, cxlmc.Config{Seed: seed}, func(p *cxlmc.Program) {
			m := p.NewMachine("M")
			x := p.Alloc(8)
			y := p.AllocAligned(8, 64)
			var r1, r2 uint64
			m.Thread("t1", func(th *cxlmc.Thread) {
				th.Store64(x, 1)
				r1 = th.Load64(y)
			})
			m.Thread("t2", func(th *cxlmc.Thread) {
				th.Store64(y, 1)
				r2 = th.Load64(x)
			})
			m.Thread("collect", func(th *cxlmc.Thread) {
				th.JoinThreads(m.Threads()[0], m.Threads()[1])
				outcomes[[2]uint64{r1, r2}] = true
			})
		})
	}
	// (0,0) is TSO-legal (both buffered); all four outcomes are legal.
	for o := range outcomes {
		if o[0] > 1 || o[1] > 1 {
			t.Fatalf("impossible litmus outcome %v", o)
		}
	}
	if !outcomes[[2]uint64{0, 0}] {
		t.Log("note: store-buffering outcome (0,0) not observed under these seeds")
	}
}

// TestLitmusMessagePassingWithFences (MP): with an mfence between the
// data and flag stores and loads, the stale outcome (flag=1, data=0) is
// impossible within a machine.
func TestLitmusMessagePassingWithFences(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		res := mustRun(t, cxlmc.Config{Seed: seed}, func(p *cxlmc.Program) {
			m := p.NewMachine("M")
			data := p.Alloc(8)
			flag := p.AllocAligned(8, 64)
			m.Thread("w", func(th *cxlmc.Thread) {
				th.Store64(data, 42)
				th.MFence()
				th.Store64(flag, 1)
			})
			m.Thread("r", func(th *cxlmc.Thread) {
				if th.Load64(flag) == 1 {
					v := th.Load64(data)
					th.Assert(v == 42, "MP violation: flag set, data %d", v)
				}
			})
		})
		if res.Buggy() {
			t.Fatalf("seed %d: %v", seed, res.Bugs)
		}
	}
}

// TestLitmusCoRR: two loads of the same location by the same thread never
// observe values in reverse coherence order.
func TestLitmusCoRR(t *testing.T) {
	res := mustRun(t, cxlmc.Config{}, func(p *cxlmc.Program) {
		m := p.NewMachine("M")
		x := p.Alloc(8)
		m.Thread("w", func(th *cxlmc.Thread) {
			th.Store64(x, 1)
			th.Store64(x, 2)
		})
		m.Thread("r", func(th *cxlmc.Thread) {
			v1 := th.Load64(x)
			v2 := th.Load64(x)
			th.Assert(v2 >= v1, "coherence violation: read %d then %d", v1, v2)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// --- Crash-consistency patterns over the public API ----------------------

// TestUndoLogPattern checks a classic undo-log update: journal the old
// value (flushed), update in place (flushed), clear the journal
// (flushed). Recovery rolls back a pending journal. The checker must
// prove the invariant "x is always one of the two committed values".
func TestUndoLogPattern(t *testing.T) {
	res := mustRun(t, cxlmc.Config{}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		journal := p.AllocAligned(16, 64) // [0] valid, [8] saved value
		p.Init64(x, 100)
		a.Thread("w", func(th *cxlmc.Thread) {
			old := th.Load64(x)
			th.Store64(journal+8, old)
			th.Store64(journal, 1)
			th.CLFlush(journal)
			th.SFence()
			th.Store64(x, 200)
			th.CLFlush(x)
			th.SFence()
			th.Store64(journal, 0)
			th.CLFlush(journal)
			th.SFence()
		})
		b.Thread("recover", func(th *cxlmc.Thread) {
			th.Join(a)
			if th.Load64(journal) == 1 {
				th.Store64(x, th.Load64(journal+8)) // roll back
				th.CLFlush(x)
				th.SFence()
				th.Store64(journal, 0)
				th.CLFlush(journal)
				th.SFence()
			}
			v := th.Load64(x)
			th.Assert(v == 100 || v == 200, "undo log exposed torn value %d", v)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
}

// TestCopyOnWritePattern checks pointer-swing updates: build a new
// version, flush it, swing a flushed pointer. Readers must never see a
// half-built version.
func TestCopyOnWritePattern(t *testing.T) {
	res := mustRun(t, cxlmc.Config{}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		ptr := p.AllocAligned(8, 64)
		v1 := p.AllocAligned(16, 64)
		p.Init64(ptr, uint64(v1))
		p.Init64(v1, 1)
		p.Init64(v1+8, 10)
		a.Thread("w", func(th *cxlmc.Thread) {
			v2 := th.AllocAligned(16, 64)
			th.Store64(v2, 2)
			th.Store64(v2+8, 20)
			th.CLFlush(v2)
			th.SFence()
			th.Store64(ptr, uint64(v2))
			th.CLFlush(ptr)
			th.SFence()
		})
		b.Thread("r", func(th *cxlmc.Thread) {
			th.Join(a)
			obj := cxlmc.Addr(th.Load64(ptr))
			gen := th.Load64(obj)
			val := th.Load64(obj + 8)
			th.Assert(val == gen*10, "torn version: gen %d val %d", gen, val)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// TestBrokenCopyOnWriteDetected drops the version flush: the checker must
// find the torn version.
func TestBrokenCopyOnWriteDetected(t *testing.T) {
	res := mustRun(t, cxlmc.Config{}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		ptr := p.AllocAligned(8, 64)
		a.Thread("w", func(th *cxlmc.Thread) {
			v2 := th.AllocAligned(16, 64)
			th.Store64(v2, 2)
			th.Store64(v2+8, 20)
			// BUG: no flush of the new version.
			th.Store64(ptr, uint64(v2))
			th.CLFlush(ptr)
			th.SFence()
		})
		b.Thread("r", func(th *cxlmc.Thread) {
			th.Join(a)
			obj := cxlmc.Addr(th.Load64(ptr))
			if obj == 0 {
				return
			}
			gen := th.Load64(obj)
			val := th.Load64(obj + 8)
			th.Assert(val == gen*10, "torn version: gen %d val %d", gen, val)
		})
	})
	if !res.Buggy() {
		t.Fatal("unflushed copy-on-write version not detected")
	}
}

// --- Randomized property tests --------------------------------------------

// propertyPrograms rolls the property tests' n programs: one machine of one
// thread of up to 12 ops from progir's whole alphabet, over up to four
// cells two to a line, which the observer loads once it finished or failed.
// Seeds that plant the pattern, whose observer asserts, are passed over.
func propertyPrograms(n int) []*progir.Program {
	var ps []*progir.Program
	for seed := int64(0); len(ps) < n; seed++ {
		p := progir.Generate(seed, progir.GenConfig{MaxMachines: 1, MaxThreadsPerMachine: 1,
			MaxOpsPerThread: 12, MaxCells: 4, FlushBudget: 12})
		if !p.Pattern {
			p.Lines = make([]int, p.Cells)
			for c := range p.Lines {
				p.Lines[c] = c / 2
			}
			ps = append(ps, p)
		}
	}
	return ps
}

func mustOutcomes(t *testing.T, cfg cxlmc.Config, p *progir.Program) (map[string]bool, *cxlmc.Result) {
	t.Helper()
	set, res, err := harness.Outcomes(cfg, p)
	if err != nil {
		t.Fatalf("%+v: %v", p, err)
	}
	return set, res
}

// TestPropertyGPFObservationsSubset: any value set observable under GPF
// must also be observable without GPF (GPF executions are a subset of
// the failure behaviours).
func TestPropertyGPFObservationsSubset(t *testing.T) {
	for trial, p := range propertyPrograms(50) {
		plain, _ := mustOutcomes(t, cxlmc.Config{}, p)
		gpf, _ := mustOutcomes(t, cxlmc.Config{GPF: true}, p)
		for o := range gpf {
			if !plain[o] {
				t.Fatalf("trial %d: observation %s reachable under GPF but not without", trial, o)
			}
		}
	}
}

// TestPropertyDeterminism: identical configs explore identical spaces.
func TestPropertyDeterminism(t *testing.T) {
	for trial, p := range propertyPrograms(50) {
		a, ra := mustOutcomes(t, cxlmc.Config{Seed: 3}, p)
		b, rb := mustOutcomes(t, cxlmc.Config{Seed: 3}, p)
		if ra.Executions != rb.Executions || !maps.Equal(a, b) {
			t.Fatalf("trial %d: non-deterministic exploration (%d vs %d execs)", trial, ra.Executions, rb.Executions)
		}
	}
}

// TestPropertyConsecutiveLoadsAgree: in every random program, two
// back-to-back loads of the same address by the observer agree (§3.3).
func TestPropertyConsecutiveLoadsAgree(t *testing.T) {
	for trial, p := range propertyPrograms(50) {
		for c := range p.Cells {
			p.Observe = append(p.Observe, c, c)
		}
		set, _ := mustOutcomes(t, cxlmc.Config{}, p)
		for o := range set {
			v := strings.Fields(strings.Trim(o, "[]"))
			for i := 0; i < len(v); i += 2 {
				if v[i] != v[i+1] {
					t.Fatalf("trial %d: consecutive loads of cell %d disagree in %s", trial, i/2, o)
				}
			}
		}
	}
}

// TestPropertyCompletenessDroppedFlush is a constructive completeness
// check: generate commit-store programs (data cell + flushed flag per
// record), verify the correct version is clean under full exploration,
// then drop each record's data flush in turn — the checker must find
// every such mutation, because flag=1 with lost data is always reachable
// and always asserted.
func TestPropertyCompletenessDroppedFlush(t *testing.T) {
	const records = 4
	build := func(droppedFlush int) func(*cxlmc.Program) {
		return func(p *cxlmc.Program) {
			a := p.NewMachine("A")
			b := p.NewMachine("B")
			data := make([]cxlmc.Addr, records)
			flags := make([]cxlmc.Addr, records)
			for i := range data {
				data[i] = p.AllocAligned(8, 64)
				flags[i] = p.AllocAligned(8, 64)
			}
			a.Thread("w", func(th *cxlmc.Thread) {
				for i := 0; i < records; i++ {
					th.Store64(data[i], uint64(i)+100)
					if i != droppedFlush {
						th.CLFlush(data[i])
						th.SFence()
					}
					th.Store64(flags[i], 1)
					th.CLFlush(flags[i])
					th.SFence()
				}
			})
			b.Thread("r", func(th *cxlmc.Thread) {
				th.Join(a)
				for i := 0; i < records; i++ {
					if th.Load64(flags[i]) == 1 {
						v := th.Load64(data[i])
						th.Assert(v == uint64(i)+100, "record %d committed but data %d", i, v)
					}
				}
			})
		}
	}

	clean := mustRun(t, cxlmc.Config{}, build(-1))
	if clean.Buggy() {
		t.Fatalf("correct program reported buggy: %v", clean.Bugs)
	}
	if !clean.Complete {
		t.Fatal("correct program not fully explored")
	}
	for i := 0; i < records; i++ {
		res := mustRun(t, cxlmc.Config{}, build(i))
		if !res.Buggy() {
			t.Fatalf("dropped flush of record %d not detected", i)
		}
	}
}

// TestPropertyGPFDeleteWorkloads: the delete-enabled workloads stay
// clean under GPF mode too (no cached value is ever lost, so both
// insert and delete commits are trivially durable).
func TestPropertyGPFDeleteWorkloads(t *testing.T) {
	res := mustRun(t, cxlmc.Config{GPF: true}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		flag := p.AllocAligned(8, 64)
		a.Thread("w", func(th *cxlmc.Thread) {
			th.Store64(x, 1)
			th.Store64(flag, 1)
			th.CLFlush(flag)
			th.SFence()
			th.Store64(x, 0) // "delete"
			th.Store64(flag, 2)
			th.CLFlush(flag)
			th.SFence()
		})
		b.Thread("r", func(th *cxlmc.Thread) {
			th.Join(a)
			f := th.Load64(flag)
			v := th.Load64(x)
			switch f {
			case 1:
				th.Assert(v == 1 || v == 0, "impossible %d", v)
			case 2:
				th.Assert(v == 0, "deleted value resurrected: %d", v)
			}
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
}

// TestLitmusIRIW: independent reads of independent writes. TSO (unlike
// weaker models) forbids two readers disagreeing on the order of two
// writers' independent stores: the store queue is a single total order.
func TestLitmusIRIW(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		res := mustRun(t, cxlmc.Config{Seed: seed}, func(p *cxlmc.Program) {
			m := p.NewMachine("M")
			x := p.Alloc(8)
			y := p.AllocAligned(8, 64)
			var r1, r2, r3, r4 uint64
			w1 := m.Thread("w1", func(th *cxlmc.Thread) { th.Store64(x, 1) })
			w2 := m.Thread("w2", func(th *cxlmc.Thread) { th.Store64(y, 1) })
			a := m.Thread("r1", func(th *cxlmc.Thread) {
				r1 = th.Load64(x)
				th.MFence()
				r2 = th.Load64(y)
			})
			b := m.Thread("r2", func(th *cxlmc.Thread) {
				r3 = th.Load64(y)
				th.MFence()
				r4 = th.Load64(x)
			})
			m.Thread("check", func(th *cxlmc.Thread) {
				th.JoinThreads(w1, w2, a, b)
				forbidden := r1 == 1 && r2 == 0 && r3 == 1 && r4 == 0
				th.Assert(!forbidden, "IRIW violation: readers disagree on store order")
			})
		})
		if res.Buggy() {
			t.Fatalf("seed %d: %v", seed, res.Bugs)
		}
	}
}

// TestArmDryRunIsNotTheCallersRun: Arm's vet pre-pass is one dry execution
// that is not part of the run being armed, so it counts into none of the
// caller's metrics and hands its OnProgress nothing.
func TestArmDryRunIsNotTheCallersRun(t *testing.T) {
	reg := cxlmc.NewMetricsRegistry()
	calls := 0
	// RaceDetect on: Arm runs the pre-pass.
	_, err := cxlmc.Arm(cxlmc.Config{
		RaceDetect: cxlmc.SwitchOn,
		Obs:        reg,
		OnProgress: func(cxlmc.Progress) { calls++ },
	}, func(p *cxlmc.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.Alloc(8)
		flag := p.AllocAligned(8, 64)
		a.Thread("w", func(th *cxlmc.Thread) {
			th.Store64(data, 42)
			th.Store64(flag, 1)
			th.CLFlush(flag)
			th.SFence()
		})
		b.Thread("r", func(th *cxlmc.Thread) {
			th.Join(a)
			th.Load64(flag)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot()["cxlmc_executions_total"]; n != 0 || calls != 0 {
		t.Fatalf("after Arm: cxlmc_executions_total=%v and %d OnProgress calls, want 0 and 0", n, calls)
	}
}
