package core_test

// The lazy §4.5 read-from search held to its reference, the eager
// Algorithm 3 path, through the test-only WithEagerReadSet hook.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// randomObserved builds a two-machine program: machine A runs a seeded
// random sequence of stores, flushes and fences over four words 32 bytes
// apart, and machine B, after A quiesced or failed, records what it reads
// (and whether A failed) into sink.
func randomObserved(seed int64, sink map[string]bool) func(*core.Program) {
	return func(p *core.Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		base := p.AllocAligned(128, 64)
		a.Thread("w", func(th *core.Thread) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 12; i++ {
				at := base + core.Addr(rng.Intn(4)*32)
				switch rng.Intn(6) {
				case 0:
					th.CLFlush(at)
				case 1:
					th.CLFlushOpt(at)
					th.SFence()
				case 2:
					th.SFence()
				case 3:
					th.MFence()
				default:
					th.Store64(at, uint64(rng.Intn(50)+1))
				}
			}
			th.MFence()
		})
		b.Thread("r", func(th *core.Thread) {
			th.Join(a)
			obs := ""
			for off := core.Addr(0); off < 128; off += 32 {
				obs += fmt.Sprintf("%d,", th.Load64(base+off))
			}
			if a.Failed() {
				obs += "F"
			}
			sink[obs] = true
		})
	}
}

// TestPropertyLazyEagerEquivalent: the §4.5 lazy search and the eager
// Algorithm 3 set produce identical observation sets and execution
// counts.
func TestPropertyLazyEagerEquivalent(t *testing.T) {
	explore := func(cfg core.Config, prog func(*core.Program)) *core.Result {
		t.Helper()
		// Serial: the observer writes a map its closure captures.
		cfg.Workers, cfg.MaxExecutions = 1, 200000
		res, err := core.Run(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		seed := rng.Int63()
		lazy := map[string]bool{}
		eager := map[string]bool{}
		rl := explore(core.Config{}, randomObserved(seed, lazy))
		re := explore(core.WithEagerReadSet(core.Config{}), randomObserved(seed, eager))
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("trial %d: lazy %v vs eager %v", trial, lazy, eager)
		}
		if rl.Executions != re.Executions {
			t.Fatalf("trial %d: lazy %d execs vs eager %d", trial, rl.Executions, re.Executions)
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
