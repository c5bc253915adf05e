package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestEagerReadSetEquivalentDetection checks the §4.5 ablation at the
// checker level: the eager Algorithm 3 path detects the same bug in the
// same number of executions as the lazy search.
func TestEagerReadSetEquivalentDetection(t *testing.T) {
	prog := func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.Alloc(8)
		flag := p.AllocAligned(8, 64)
		a.Thread("w", func(th *Thread) {
			th.Store64(data, 42)
			th.Store64(flag, 1)
			th.CLFlush(flag)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			if th.Load64(flag) == 1 {
				th.Assert(th.Load64(data) == 42, "lost data")
			}
		})
	}
	lazy := run(t, Config{}, prog)
	eager := run(t, Config{EagerReadSet: true}, prog)
	if !lazy.Buggy() || !eager.Buggy() {
		t.Fatalf("bug missed: lazy=%v eager=%v", lazy.Bugs, eager.Bugs)
	}
	if lazy.Executions != eager.Executions {
		t.Fatalf("executions diverge: lazy %d, eager %d", lazy.Executions, eager.Executions)
	}
}

// traceProgramFlush is the program testdata/trace_flush.golden was recorded
// from: buffered stores, a clflush commit and both ways a machine fails.
func traceProgramFlush(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	x := p.Alloc(8)
	y := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		th.Store64(y, 2)
		th.Store64(x, 1)
		th.CLFlush(x)
		th.SFence()
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		th.Load64(x)
		th.Load64(y)
	})
}

// traceProgramRMW is the program testdata/trace_rmw.golden was recorded from:
// a clflushopt written back through an sfence, a locked RMW with its internal
// load and its store, and a bug.
func traceProgramRMW(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	x := p.Alloc(8)
	y := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		th.Store64(x, 1)
		th.CLFlushOpt(x)
		th.SFence()
		th.FetchAdd64(y, 5)
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		th.Assert(th.Load64(x) == 1, "x lost")
	})
}

// TestTraceOutput pins the text trace to what the last commit with
// Config.Trace printed for two programs, every execution of each: the goldens
// are that commit's output, byte for byte. With PrefixFork on the replayed
// prefixes must say the same as a full re-execution, and removing the
// observeOp call of any effect kind turns a golden red.
func TestTraceOutput(t *testing.T) {
	for _, c := range []struct {
		golden string
		cfg    Config
		prog   func(*Program)
	}{
		{"trace_flush.golden", Config{MaxExecutions: 10}, traceProgramFlush},
		{"trace_rmw.golden", Config{MaxExecutions: 10, ContinueAfterBug: true}, traceProgramRMW},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, fork := range []Switch{SwitchOn, SwitchOff} {
			var buf bytes.Buffer
			cfg := c.cfg
			cfg.Observer, cfg.PrefixFork = TraceTo(&buf), fork
			res, err := Run(cfg, c.prog)
			if err != nil {
				t.Fatal(err)
			}
			if forked := res.PrefixForks > 0; forked != (fork == SwitchOn) {
				t.Errorf("%s, PrefixFork %v: %d prefix forks", c.golden, fork, res.PrefixForks)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("%s, PrefixFork %v: trace differs from the golden\n got:\n%s\nwant:\n%s", c.golden, fork, got, want)
			}
		}
	}
}

// TestJoinThreadsSubset waits on a subset of a machine's threads while a
// sibling thread keeps running.
func TestJoinThreadsSubset(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		gate := p.Alloc(64) // host-side gate via checker mutex
		mu := p.NewMutex("gate")
		_ = gate
		fast := a.Thread("fast", func(th *Thread) {
			th.Store64(x, 1)
			th.MFence()
		})
		a.Thread("slow", func(th *Thread) {
			mu.Lock(th) // parks until the observer releases it
			mu.Unlock(th)
		})
		b.Thread("obs", func(th *Thread) {
			mu.Lock(th)
			th.JoinThreads(fast) // must not wait for "slow"
			v := th.Load64(x)
			if !a.Failed() {
				th.Assert(v == 1, "fast thread's store missing: %d", v)
			}
			mu.Unlock(th)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// TestTooManyMachines verifies the machine-count guard surfaces as a
// setup error.
func TestTooManyMachines(t *testing.T) {
	_, err := Run(Config{}, func(p *Program) {
		for i := 0; i < 70; i++ {
			p.NewMachine("m")
		}
	})
	if err == nil {
		t.Fatal("expected setup error for too many machines")
	}
}

// TestRegionExhaustion verifies allocator exhaustion surfaces as a setup
// error rather than corruption.
func TestRegionExhaustion(t *testing.T) {
	_, err := Run(Config{MemSize: 4096}, func(p *Program) {
		p.Alloc(8192)
	})
	if err == nil {
		t.Fatal("expected setup error for exhausted region")
	}
}

// TestMisalignedAtomicPanics verifies misaligned RMW is reported.
func TestMisalignedAtomicPanics(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(16)
		a.Thread("t", func(th *Thread) {
			th.CAS64(x+3, 0, 1)
		})
	})
	if !res.Buggy() || res.Bugs[0].Kind != BugPanic {
		t.Fatalf("bugs = %v, want a panic report", res.Bugs)
	}
}

// TestTryLock covers the non-blocking acquire path.
func TestTryLock(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		mu := p.NewMutex("m")
		a.Thread("t", func(th *Thread) {
			ok, failed := mu.TryLock(th)
			th.Assert(ok && !failed, "first TryLock: %v %v", ok, failed)
			ok2, _ := mu.TryLock(th)
			th.Assert(!ok2, "re-acquire of held mutex succeeded")
			mu.Unlock(th)
			ok3, _ := mu.TryLock(th)
			th.Assert(ok3, "TryLock after unlock failed")
			mu.Unlock(th)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// TestCLWBAlias checks CLWB behaves as clflushopt.
func TestCLWBAlias(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 9)
			th.CLWB(x)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			if a.Failed() {
				// After the CLWB+SFence committed, the store persists.
				v := th.Load64(x)
				th.Assert(v == 9 || v == 0, "impossible value %d", v)
			}
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
}

// TestFailAPI covers Thread.Fail and the accessors.
func TestFailAPI(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		if a.Name() != "A" || a.ID() != 0 {
			t.Errorf("machine accessors: %q %d", a.Name(), a.ID())
		}
		a.Thread("t", func(th *Thread) {
			if th.Name() != "t" || th.Machine() != a {
				t.Error("thread accessors broken")
			}
			th.Fail("deliberate failure %d", 7)
		})
	})
	if !res.Buggy() || res.Bugs[0].Kind != BugAssertion {
		t.Fatalf("bugs = %v", res.Bugs)
	}
	if res.Bugs[0].Message != "deliberate failure 7" {
		t.Fatalf("message = %q", res.Bugs[0].Message)
	}
}

// TestCommitChanceExtremes explores the same program under extreme drain
// biases: both must terminate and stay sound.
func TestCommitChanceExtremes(t *testing.T) {
	prog := func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			for i := uint64(1); i <= 5; i++ {
				th.Store64(x, i)
			}
			th.CLFlush(x)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			v := th.Load64(x)
			th.Assert(v <= 5, "impossible value %d", v)
		})
	}
	for _, chance := range []int{1, 99} {
		res := run(t, Config{CommitChance: chance}, prog)
		if res.Buggy() {
			t.Fatalf("chance %d: %v", chance, res.Bugs)
		}
		if !res.Complete {
			t.Fatalf("chance %d: incomplete", chance)
		}
	}
}

// TestStepLimitReportsLivelock converts a runaway spin into a diagnosable
// report instead of a hang.
func TestStepLimitReportsLivelock(t *testing.T) {
	res, err := Run(Config{MaxStepsPerExec: 500, MaxExecutions: 1}, func(p *Program) {
		a := p.NewMachine("A")
		a.Thread("spin", func(th *Thread) {
			for {
				th.Yield()
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Buggy() || res.Bugs[0].Kind != BugLivelock {
		t.Fatalf("bugs = %v, want step-limit livelock report", res.Bugs)
	}
}

// TestReplayAttachesBugTrace: Replay attaches the buggy execution's trace to
// the report (Bug.Trace) — the last traceDepth lines of it, here of an
// execution that has more, up to the load that failed the assertion — and
// they are the lines the caller's own observer was handed for the same
// execution.
func TestReplayAttachesBugTrace(t *testing.T) {
	prog := func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.Alloc(8)
		pad := p.Alloc(8)
		flag := p.AllocAligned(8, 64)
		a.Thread("w", func(th *Thread) {
			for i := 0; i < traceDepth; i++ {
				th.Store64(pad, uint64(i))
			}
			th.Store64(data, 42)
			th.Store64(flag, 1)
			th.CLFlush(flag)
			th.SFence()
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			if th.Load64(flag) == 1 {
				th.Assert(th.Load64(data) == 42, "lost data")
			}
		})
	}
	found := run(t, Config{}, prog)
	if !found.Buggy() {
		t.Fatal("bug not found")
	}
	if len(found.Bugs[0].Trace) != 0 {
		t.Fatalf("an exploring run captured %d trace lines", len(found.Bugs[0].Trace))
	}
	var full bytes.Buffer
	res, err := Replay(found.Bugs[0].ReproToken, Config{Observer: TraceTo(&full)}, prog)
	if err != nil || !res.Buggy() {
		t.Fatalf("replay: %v, %+v", err, res)
	}
	trace := res.Bugs[0].Trace
	if len(trace) == 0 {
		t.Fatal("no trace captured")
	}
	joined := strings.Join(trace, "\n")
	if !strings.Contains(joined, "FAIL machine") {
		t.Fatalf("trace lacks the failure event:\n%s", joined)
	}
	if len(trace) != traceDepth {
		t.Fatalf("captured %d lines of a longer execution, want the last %d", len(trace), traceDepth)
	}
	if last := trace[len(trace)-1]; !strings.Contains(last, "load [0x40]×8 = 0 by B/r") {
		t.Fatalf("trace ends in %q, want the load that lost the data", last)
	}
	lines := strings.Split(strings.TrimSuffix(full.String(), "\n"), "\n")
	if n := len(lines) - 1; n <= traceDepth || !strings.Contains(lines[n], "BUG [assertion] lost data") ||
		!slices.Equal(trace, lines[n-traceDepth:n]) {
		t.Fatalf("Bug.Trace is not the %d lines before the report in the %d-line full trace:\n%s", traceDepth, len(lines), joined)
	}
}

// TestDynamicThreadSpawn creates a thread from inside a running thread —
// the pattern benchmark main()s use to fork workers at runtime.
func TestDynamicThreadSpawn(t *testing.T) {
	res := run(t, Config{}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("main", func(th *Thread) {
			th.Store64(x, 1)
			th.MFence()
			child := a.Thread("child", func(c *Thread) {
				v := c.Load64(x)
				c.Assert(v == 1, "child missed parent's store: %d", v)
				c.Store64(x, 2)
				c.MFence()
			})
			th.JoinThreads(child)
			v := th.Load64(x)
			th.Assert(v == 2, "parent missed child's store: %d", v)
		})
	})
	if res.Buggy() {
		t.Fatalf("bugs: %v", res.Bugs)
	}
	if !res.Complete {
		t.Fatal("incomplete")
	}
}

// TestNilProgram returns an error instead of panicking.
func TestNilProgram(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Fatal("expected error for nil program")
	}
}
