package cxlmc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	cxlmc "repro"
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

// TestPropertyGPFObservationsSubset: any value set observable under GPF
// must also be observable without GPF (GPF executions are a subset of
// the failure behaviours).
func TestPropertyGPFObservationsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		prog, observe := randomProgram(rng.Int63())
		plain := map[string]bool{}
		gpf := map[string]bool{}
		mustRun(t, cxlmc.Config{}, prog(plain, observe))
		mustRun(t, cxlmc.Config{GPF: true}, prog(gpf, observe))
		for o := range gpf {
			if !plain[o] {
				t.Fatalf("trial %d: observation %q reachable under GPF but not without", trial, o)
			}
		}
	}
}

// TestPropertyDeterminism: identical configs explore identical spaces.
func TestPropertyDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		prog, observe := randomProgram(rng.Int63())
		a := map[string]bool{}
		b := map[string]bool{}
		ra := mustRun(t, cxlmc.Config{Seed: 3}, prog(a, observe))
		rb := mustRun(t, cxlmc.Config{Seed: 3}, prog(b, observe))
		if ra.Executions != rb.Executions || !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: non-deterministic exploration (%d vs %d execs)", trial, ra.Executions, rb.Executions)
		}
	}
}

// TestPropertyConsecutiveLoadsAgree: in every random program, two
// back-to-back loads of the same address by the observer agree (§3.3).
func TestPropertyConsecutiveLoadsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		res := mustRun(t, cxlmc.Config{}, func(p *cxlmc.Program) {
			a := p.NewMachine("A")
			b := p.NewMachine("B")
			base := p.AllocAligned(128, 64)
			writer := randomWriter(seed, base)
			a.Thread("w", writer)
			b.Thread("r", func(th *cxlmc.Thread) {
				th.Join(a)
				for off := cxlmc.Addr(0); off < 128; off += 32 {
					v1 := th.Load64(base + off)
					v2 := th.Load64(base + off)
					th.Assert(v1 == v2, "consecutive loads at +%d disagree: %d vs %d", off, v1, v2)
				}
			})
		})
		if res.Buggy() {
			t.Fatalf("trial %d (seed %d): %v", trial, seed, res.Bugs)
		}
	}
}

// randomWriter emits a deterministic pseudo-random sequence of stores,
// flushes and fences over [base, base+128).
func randomWriter(seed int64, base cxlmc.Addr) func(*cxlmc.Thread) {
	return func(th *cxlmc.Thread) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 12; i++ {
			a := base + cxlmc.Addr(rng.Intn(4)*32)
			switch rng.Intn(6) {
			case 0:
				th.CLFlush(a)
			case 1:
				th.CLFlushOpt(a)
				th.SFence()
			case 2:
				th.SFence()
			case 3:
				th.MFence()
			default:
				th.Store64(a, uint64(rng.Intn(50)+1))
			}
		}
		th.MFence()
	}
}

// randomProgram builds a two-machine program with a seeded random writer
// and an observer that records what it reads into the provided set.
func randomProgram(seed int64) (func(map[string]bool, int) func(*cxlmc.Program), int) {
	return func(sink map[string]bool, _ int) func(*cxlmc.Program) {
		return func(p *cxlmc.Program) {
			a := p.NewMachine("A")
			b := p.NewMachine("B")
			base := p.AllocAligned(128, 64)
			a.Thread("w", randomWriter(seed, base))
			b.Thread("r", func(th *cxlmc.Thread) {
				th.Join(a)
				obs := ""
				for off := cxlmc.Addr(0); off < 128; off += 32 {
					obs += fmt.Sprintf("%d,", th.Load64(base+off))
				}
				if a.Failed() {
					obs += "F"
				}
				sink[obs] = true
			})
		}
	}, 0
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
		RaceDetect:    cxlmc.SwitchOn,
		Obs:           reg,
		ProgressEvery: time.Nanosecond,
		OnProgress:    func(cxlmc.Progress) { calls++ },
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
