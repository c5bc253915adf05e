package harness

import (
	"fmt"
	"sync"
	"testing"

	cxlmc "repro"
	"repro/internal/dist"
	"repro/internal/recipe"
)

// The reduction-parity suite: state-space reduction is a pure
// optimization, so for every RECIPE benchmark the distinct-bug set must be
// identical with it on and off — serially, under four workers, and across
// a distributed coordinator/worker pair — and every repro token minted in
// a mode must replay in that mode. (Tokens do not replay across modes by
// design: Reduction participates in the config digest, because a path
// recorded with pruning on lacks the decision points an unreduced replay
// would re-create.)

// reductionOff returns cfg with reduction forced off.
func reductionOff(cfg cxlmc.Config) cxlmc.Config {
	cfg.Reduction = cxlmc.SwitchOff
	return cfg
}

// replayAll replays every bug token under replayCfg and
// fails unless it reproduces the same bug.
func replayAll(t *testing.T, label string, res *cxlmc.Result, replayCfg cxlmc.Config, program func(*cxlmc.Program)) {
	t.Helper()
	for i, bug := range res.Bugs {
		if bug.ReproToken == "" {
			t.Fatalf("%s: bug %d carries no repro token: %v", label, i, bug)
		}
		rep, err := cxlmc.Replay(bug.ReproToken, replayCfg, program)
		if err != nil {
			t.Fatalf("%s: replaying bug %d (%s %q): %v", label, i, bug.Kind, bug.Message, err)
		}
		found := false
		for _, rb := range rep.Bugs {
			if rb.Kind == bug.Kind && rb.Message == bug.Message {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: bug %d (%s %q) did not reproduce: replay found %v", label, i, bug.Kind, bug.Message, rep.Bugs)
		}
	}
}

// sameBugs fails unless two results surface the same distinct bug set.
func sameBugs(t *testing.T, labelA string, a *cxlmc.Result, labelB string, b *cxlmc.Result) {
	t.Helper()
	ba, bb := distinctBugs(a.Bugs), distinctBugs(b.Bugs)
	if len(ba) != len(bb) {
		t.Fatalf("bug sets diverged: %s found %d distinct, %s found %d\n%s: %v\n%s: %v",
			labelA, len(ba), labelB, len(bb), labelA, ba, labelB, bb)
	}
	for i := range ba {
		if ba[i] != bb[i] {
			t.Fatalf("distinct bug %d diverged: %s %q, %s %q", i, labelA, ba[i], labelB, bb[i])
		}
	}
}

// TestReductionParityBenchmarks: every seeded-bug RECIPE benchmark
// surfaces the identical distinct-bug set with reduction on and off,
// serially and under four workers, with fewer (or equal) executions in the
// reduced runs, and every token replays in its mode.
func TestReductionParityBenchmarks(t *testing.T) {
	for _, b := range Benchmarks {
		b := b
		bi := b.Bugs[0]
		t.Run(b.Name, func(t *testing.T) {
			if testing.Short() && b.Name != "CCEH" && b.Name != "P-CLHT" {
				t.Skip("slow buggy sweep entry in short mode")
			}
			cfg := recipe.Config{Keys: bi.Keys, Workers: bi.Workers, Stride: bi.Stride, Bugs: bi.Bit}
			program := recipe.Program(b, cfg)
			onCfg := cxlmc.Config{Workers: 1, ContinueAfterBug: true, MaxExecutions: 2_000_000}
			offCfg := reductionOff(onCfg)

			on, err := cxlmc.Run(onCfg, program)
			if err != nil {
				t.Fatal(err)
			}
			off, err := cxlmc.Run(offCfg, program)
			if err != nil {
				t.Fatal(err)
			}
			if !on.Complete || !off.Complete {
				t.Fatalf("incomplete exploration: on=%v off=%v", on.Complete, off.Complete)
			}
			if on.Executions > off.Executions {
				t.Fatalf("reduction increased executions: on=%d off=%d", on.Executions, off.Executions)
			}
			sameBugs(t, "reduction-on", on, "reduction-off", off)

			par, err := cxlmc.Run(cxlmc.Config{Workers: 4, ContinueAfterBug: true, MaxExecutions: 2_000_000}, program)
			if err != nil {
				t.Fatal(err)
			}
			if !par.Complete {
				t.Fatal("workers=4 exploration incomplete: its counts compare with nothing (core.Stats)")
			}
			if par.Executions != on.Executions {
				t.Fatalf("workers=4 execs %d != serial reduced execs %d", par.Executions, on.Executions)
			}
			sameBugs(t, "reduction-on workers=4", par, "reduction-off", off)

			replayAll(t, "reduction-on", on, cxlmc.Config{}, program)
			replayAll(t, "reduction-off", off, cxlmc.Config{Reduction: cxlmc.SwitchOff}, program)
			replayAll(t, "reduction-on workers=4", par, cxlmc.Config{}, program)

			t.Logf("parity: %d distinct bugs; execs on=%d off=%d (pruned %d)",
				len(distinctBugs(on.Bugs)), on.Executions, off.Executions, on.Pruned)
		})
	}
}

// TestReductionParityDistributed: a real coordinator/worker pair over
// HTTP with reduction on reports the same distinct-bug set as a
// reduction-off serial baseline, and its tokens replay. One benchmark
// suffices — the engine-side reduction code is identical in distributed
// mode; what this adds is the wire round-trip of the new Stats deltas
// and the digest handshake with Reduction folded in.
func TestReductionParityDistributed(t *testing.T) {
	b := Benchmarks[0] // CCEH: the Table 5 acceptance workload
	bi := b.Bugs[0]
	program := recipe.Program(b, recipe.Config{Keys: bi.Keys, Workers: bi.Workers, Stride: bi.Stride, Bugs: bi.Bit})
	check := cxlmc.Config{ContinueAfterBug: true}

	off, err := cxlmc.Run(reductionOff(cxlmc.Config{Workers: 1, ContinueAfterBug: true, MaxExecutions: 2_000_000}), program)
	if err != nil {
		t.Fatal(err)
	}

	c, err := dist.StartCoordinator(dist.CoordinatorConfig{
		Check: check, Program: program, Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := dist.RunWorker(dist.WorkerConfig{
				Check: check, Program: program,
				Coordinator: c.Addr(), Name: fmt.Sprintf("w%d", i),
			}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	res, err := c.Wait(nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("distributed run incomplete")
	}
	sameBugs(t, "distributed reduction-on", res, "serial reduction-off", off)
	replayAll(t, "distributed reduction-on", res, cxlmc.Config{}, program)
	if res.Executions > off.Executions {
		t.Fatalf("distributed reduced execs %d exceed reduction-off %d", res.Executions, off.Executions)
	}
	t.Logf("distributed parity: execs on=%d off=%d, pruned=%d", res.Executions, off.Executions, res.Pruned)
}
