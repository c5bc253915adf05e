package core_test

// Checkers are pooled between Runs for their scratch memory (checker.go).
// What a checker keeps must be storage only: these tests hold every kind of
// run on a warm checker to the same run on fresh ones, and pin what the
// steady state still allocates.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/gofront"
	"repro/internal/harness"
	"repro/internal/progir"
	"repro/internal/recipe"
)

// warmCase is one run rendered as everything it promises: a Run's counts,
// bugs and, when serial, its tokens; a Replay's bug with its trace; a Vet's
// findings.
type warmCase struct {
	name string
	run  func() (string, error)
}

// warmVariants are the settings the cases take in turn over their base
// configuration.
var warmVariants = []struct {
	name string
	set  func(*core.Config)
}{
	{"base", func(*core.Config) {}},
	{"seed=3", func(c *core.Config) { c.Seed = 3 }},
	{"gpf", func(c *core.Config) { c.GPF = !c.GPF }},
	{"race-off", func(c *core.Config) { c.RaceDetect = core.SwitchOff }},
	{"prefix-fork-off", func(c *core.Config) { c.PrefixFork = core.SwitchOff }},
	{"reduction-off", func(c *core.Config) { c.Reduction = core.SwitchOff }},
	{"workers=2", func(c *core.Config) { c.Workers = 2 }},
}

func exploreCase(name string, cfg core.Config, prog func(*core.Program)) warmCase {
	return warmCase{name, func() (string, error) {
		res, err := core.Run(cfg, prog)
		if err != nil {
			return "", err
		}
		c := res.Counters
		serial := cfg.Workers == 1
		out := fmt.Sprintf("%s bugs=%s", counts(res), bugDigest(res.Bugs, serial))
		if serial {
			out += fmt.Sprintf(" forks=%d saved=%d", c.PrefixForks, c.StepsSaved)
		}
		return out, nil
	}}
}

func replayCase(name, token string, cfg core.Config, prog func(*core.Program)) warmCase {
	return warmCase{name, func() (string, error) {
		res, err := core.Replay(token, cfg, prog)
		if err != nil {
			return "", err
		}
		var trace []string
		for _, b := range res.Bugs {
			trace = append(trace, b.Trace...)
		}
		return fmt.Sprintf("%s bugs=%s trace=%q", counts(res), bugDigest(res.Bugs, true), trace), nil
	}}
}

func vetCase(name string, cfg core.Config, prog func(*core.Program)) warmCase {
	return warmCase{name, func() (string, error) {
		rep, err := analyze.Vet(cfg, prog)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("events=%d findings=%v flagged=%v", rep.Events, rep.Findings, rep.FlaggedLines()), nil
	}}
}

// warmCases mixes the twelve Table 5 rows, a litmus slice, examples/src/
// cceh.go through gofront, replays and vets, each under one of the
// variants.
func warmCases(t *testing.T) []warmCase {
	t.Helper()
	var cases []warmCase
	k := 0 // the explorations so far: each takes the next variant
	variant := func(name string, cfg core.Config) (string, core.Config) {
		v := warmVariants[k%len(warmVariants)]
		k++
		v.set(&cfg)
		return name + "/" + v.name, cfg
	}
	for _, gpf := range []bool{false, true} {
		for _, b := range harness.Benchmarks {
			prog := recipe.Program(b, harness.Table5Config())
			cfg := core.Config{Workers: 1, RaceDetect: core.SwitchOn, GPF: gpf}
			if !gpf {
				cases = append(cases, vetCase("vet/"+b.Name, cfg, prog))
			}
			rep, err := analyze.Vet(cfg, prog)
			if err != nil {
				t.Fatalf("%s: vet: %v", b.Name, err)
			}
			cfg.UnflushedLines = rep.FlaggedLines()
			name, cfg := variant("table5/"+b.Name, cfg)
			cases = append(cases, exploreCase(name, cfg, prog))
		}
	}
	litmus := 24
	if testing.Short() {
		litmus = 8
	}
	for seed := int64(0); seed < int64(litmus); seed++ {
		name, cfg := variant(fmt.Sprintf("litmus/%d", seed), core.Config{Workers: 1, ContinueAfterBug: true})
		cases = append(cases, exploreCase(name, cfg, harness.Generate(seed, harness.GenConfig{})))
	}

	path := filepath.Join("..", "..", "examples", "src", "cceh.go")
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := gofront.Load(path, src)
	if err != nil {
		t.Fatal(err)
	}
	source, err := s.Program("Program")
	if err != nil {
		t.Fatal(err)
	}
	twin := recipe.Program(harness.Benchmarks[0], recipe.Config{Keys: 10, Workers: 1, Bugs: 1})
	ccehCfg := core.Config{Workers: 1, ContinueAfterBug: true}
	cases = append(cases, vetCase("vet/source_cceh", ccehCfg, source))
	for range warmVariants {
		name, cfg := variant("source_cceh", ccehCfg)
		cases = append(cases, exploreCase(name, cfg, source))
	}
	// The source and its hand-ported twin explore the same tree: a token
	// of either replays under both.
	var res *core.Result
	core.ColdCheckers(func() { res, err = core.Run(ccehCfg, twin) })
	if err != nil || len(res.Bugs) == 0 {
		t.Fatalf("CCEH with bug 1: %v, bugs %v", err, res)
	}
	for i, b := range res.Bugs {
		cases = append(cases,
			replayCase(fmt.Sprintf("replay/%d/twin", i), b.ReproToken, ccehCfg, twin),
			replayCase(fmt.Sprintf("replay/%d/source", i), b.ReproToken, ccehCfg, source))
	}
	return cases
}

// TestWarmRunsAreIsolated: a Run, a Replay or a Vet on checkers that earlier
// runs of other programs and settings left in the pool gives exactly what
// it gives on fresh checkers — counts, decision points, bugs and tokens —
// whatever ran before it: the cases in order, shuffled, and on several
// goroutines at once.
func TestWarmRunsAreIsolated(t *testing.T) {
	cases := warmCases(t)
	want := make([]string, len(cases))
	core.ColdCheckers(func() {
		for i, c := range cases {
			var err error
			if want[i], err = c.run(); err != nil {
				t.Fatalf("%s on fresh checkers: %v", c.name, err)
			}
		}
	})
	check := func(leg string, order []int) {
		for _, i := range order {
			got, err := cases[i].run()
			if err != nil {
				t.Errorf("%s: %s: %v", leg, cases[i].name, err)
			} else if got != want[i] {
				t.Errorf("%s: %s on warm checkers:\n got %s\nwant %s", leg, cases[i].name, got, want[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	inOrder := make([]int, len(cases))
	for i := range inOrder {
		inOrder[i] = i
	}
	check("in order", inOrder)
	check("shuffled", rng.Perm(len(cases)))
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		order := rng.Perm(len(cases))
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(fmt.Sprintf("goroutine %d", g), order)
		}()
	}
	wg.Wait()
}

// quietProgram is ir's checker program with nothing of its own to allocate
// per execution: names, thread bodies and the cell table are made once, so
// what a run allocates is the checker's. The tables are shared, so it must
// not run on two workers at once.
func quietProgram(ir *progir.Program) func(*core.Program) {
	cells := make([]core.Addr, ir.Cells)
	first := make([]int, ir.Cells) // the first cell on each cell's line
	for i := range first {
		first[i] = i
		for j := 0; j < i; j++ {
			if ir.Line(j) == ir.Line(i) {
				first[i] = j
				break
			}
		}
	}
	var mu *core.Mutex
	workers := make([]*core.Machine, len(ir.Machines))
	var exec func(th *core.Thread, op progir.Op)
	exec = func(th *core.Thread, op progir.Op) {
		a := cells[op.Cell]
		switch op.Code {
		case progir.Store:
			th.Store64(a, op.Val)
		case progir.Load:
			th.Load64(a)
		case progir.Flush:
			th.CLFlush(a)
		case progir.FlushOpt:
			th.CLFlushOpt(a)
			th.SFence()
		case progir.SFence:
			th.SFence()
		case progir.MFence:
			th.MFence()
		case progir.CAS:
			th.CAS64(a, 0, op.Val)
		case progir.FetchAdd:
			th.FetchAdd64(a, op.Val)
		case progir.Yield:
			th.Yield()
		case progir.Critical:
			mu.Lock(th)
			for _, in := range op.Inner {
				exec(th, in)
			}
			mu.Unlock(th)
		case progir.Join:
			th.Join(workers[op.Machine])
		}
	}
	names := make([]string, len(ir.Machines))
	threadNames := make([][]string, len(ir.Machines))
	bodies := make([][]func(*core.Thread), len(ir.Machines))
	for m, threads := range ir.Machines {
		names[m] = fmt.Sprintf("m%d", m)
		for i, ops := range threads {
			threadNames[m] = append(threadNames[m], fmt.Sprintf("t%d", i))
			bodies[m] = append(bodies[m], func(th *core.Thread) {
				for _, op := range ops {
					exec(th, op)
				}
			})
		}
	}
	observed := ir.Observed()
	check := func(th *core.Thread) {
		for _, w := range workers {
			th.Join(w)
		}
		for _, c := range observed {
			th.Load64(cells[c])
		}
	}
	return func(p *core.Program) {
		for i := range cells {
			if first[i] == i {
				cells[i] = p.AllocAligned(8, 64)
			} else {
				cells[i] = cells[first[i]] + core.Addr(8*(i-first[i]))
			}
		}
		if ir.Mutex {
			mu = p.NewMutex("stress")
		}
		for m := range ir.Machines {
			workers[m] = p.NewMachine(names[m])
			for i, body := range bodies[m] {
				workers[m].Thread(threadNames[m][i], body)
			}
		}
		p.NewMachine("observer").Thread("check", check)
	}
}

// TestWarmRunAllocationBudget: once a process has run a program, running it
// again allocates a fixed number of objects — the run's engine, digests and
// result, and the carrier coroutines its threads start on (82 for the
// five-thread program picked here) — and nothing more per execution: the
// checker's memory, scheduler, race detector, logs, tree and schedule
// stream are the last run's.
func TestWarmRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	const budget = 100
	var ir *progir.Program
	var prog func(*core.Program)
	var execs int
	for seed := int64(0); execs < 8; seed++ {
		ir = progir.Generate(seed, progir.GenConfig{})
		prog = quietProgram(ir)
		res, err := core.Run(core.Config{Workers: 1, ContinueAfterBug: true}, prog)
		if err != nil {
			t.Fatal(err)
		}
		execs = res.Executions
	}
	allocs := func(maxExecs int) float64 {
		cfg := core.Config{Workers: 1, ContinueAfterBug: true, RaceDetect: core.SwitchOn, MaxExecutions: maxExecs}
		if _, err := core.Run(cfg, prog); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := core.Run(cfg, prog); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, all := allocs(1), allocs(0)
	threads := 1
	for _, m := range ir.Machines {
		threads += len(m)
	}
	t.Logf("%d executions, %d threads: one execution %.0f allocations, all %.0f", execs, threads, one, all)
	if one > budget {
		t.Errorf("a warm one-execution run made %.0f allocations, budget %d", one, budget)
	}
	if all > one {
		t.Errorf("a warm %d-execution run made %.0f allocations, a one-execution run %.0f: executions allocate", execs, all, one)
	}
}
