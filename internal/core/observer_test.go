package core

import (
	"slices"
	"testing"

	"repro/internal/decision"
)

// opCounter counts the events it is handed — bug reports aside, which come
// once per distinct bug of a run however many of its executions meet it.
type opCounter struct{ n int }

func (c *opCounter) Op(ev OpEvent) {
	if ev.Kind != OpBug {
		c.n++
	}
}

// leakProbe has a writer machine flush two lines, a reader machine join it,
// and one assertion that only a crash of the writer can fail — so the bug's
// token goes through minimization replays.
func leakProbe(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	x := p.AllocAligned(8, 64)
	y := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		th.Store64(x, 1)
		th.CLFlush(x)
		th.Store64(y, 1)
		th.CLFlush(y)
		th.SFence()
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		th.Assert(th.Load64(y) == 1, "y lost")
	})
}

// TestObserverSeesOnlyExploredExecutions: the op stream a Run delivers is that
// of the executions it explored. The replays that minimize a bug's token are
// not among them: Run hands its observer what Continue — which does not
// minimize — hands it, and what replaying each explored path on its own adds
// up to, while the token it reports is still the minimized one.
func TestObserverSeesOnlyExploredExecutions(t *testing.T) {
	cfg := Config{Workers: 1, ContinueAfterBug: true}

	var ran opCounter
	obs := cfg
	obs.Observer = &ran
	res := run(t, obs, leakProbe)
	if !res.Buggy() {
		t.Fatal("bug not found")
	}

	var continued opCounter
	obs.Observer = &continued
	_, raw, err := Continue(obs, leakProbe, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Every explored path, from a plain serial walk of the tree.
	walk := cfg
	walk.fillDefaults()
	ck := &Checker{cfg: walk, program: leakProbe, tree: decision.NewTree()}
	defer ck.release()
	var replayed opCounter
	obs.Observer = &replayed
	obs.fillDefaults()
	paths := 0
	for more := true; more; more = ck.tree.Advance() {
		ck.tree.Begin()
		ck.runOneExecution()
		if _, _, err := replayPath(obs, leakProbe, "", slices.Clone(ck.tree.Path()), false); err != nil {
			t.Fatal(err)
		}
		paths++
	}

	if paths != res.Executions || raw.Executions != res.Executions {
		t.Fatalf("executions: Run %d, Continue %d, tree walk %d", res.Executions, raw.Executions, paths)
	}
	if ran.n != continued.n || ran.n != replayed.n || ran.n == 0 {
		t.Fatalf("events delivered: Run %d, Continue %d, its %d paths replayed singly %d", ran.n, continued.n, paths, replayed.n)
	}

	l, _, _, err := OpenLedger(cfg, leakProbe, nil)
	if err != nil {
		t.Fatal(err)
	}
	minimizeBugTokens(l.cfg, leakProbe, l.progDigest, raw.Bugs)
	if len(raw.Bugs) != 1 || len(res.Bugs) != 1 || res.Bugs[0].ReproToken != raw.Bugs[0].ReproToken {
		t.Fatalf("Run reports %+v, Continue's bugs minimize to %+v", res.Bugs, raw.Bugs)
	}
	rep, err := Replay(res.Bugs[0].ReproToken, cfg, leakProbe)
	if err != nil || !reproduces(rep, res.Bugs[0]) {
		t.Fatalf("the reported token does not replay the bug: %v, %+v", err, rep)
	}
}

// TestObservationOffAllocatesNothing: with no Observer, a round of store,
// load, flush, locked RMW and machine failure allocates nothing — each site
// is one bool test, and the cause a failure carries is a value on the stack.
func TestObservationOffAllocatesNothing(t *testing.T) {
	const rounds = 20
	allocs := -1.0
	res := run(t, Config{Workers: 1, MaxExecutions: 1}, func(p *Program) {
		x := p.Alloc(8)
		y := p.Alloc(8)
		var spare []*Machine
		for i := 0; i <= rounds; i++ {
			spare = append(spare, p.NewMachine("spare"))
		}
		p.NewMachine("A").Thread("t", func(th *Thread) {
			round := func() {
				th.Store64(x, 1)
				_ = th.Load64(x)
				th.CLFlush(x)
				th.FetchAdd64(y, 1)
				th.ck.failMachine(spare[0], th, OpEvent{Cause: OpFlush, Line: 1})
				spare = spare[1:]
			}
			allocs = testing.AllocsPerRun(rounds-1, round)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if allocs != 0 {
		t.Fatalf("store+load+flush+RMW+failure with no Observer: %v allocs per round, want 0", allocs)
	}
}
