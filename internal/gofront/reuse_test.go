package gofront_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// A machine outlives its phase: whatever a reused one does must be what
// a fresh one would. Each test below explores one program twice over
// the same Source, so the second run's phases run on machines earlier
// ones gave back — after normal returns, kills deep in a call chain,
// and teardowns of blocked threads.

// opLog records an op stream execution by execution: every execution
// starts by running the program's set-up, which opens the next entry.
// Set-ups that run no thread (the program digest's, a bug's token
// minimization) leave empty entries, which streams drops.
type opLog struct{ execs [][]core.OpEvent }

func (l *opLog) Op(ev core.OpEvent) {
	n := len(l.execs) - 1
	l.execs[n] = append(l.execs[n], ev)
}

func (l *opLog) wrap(prog func(*core.Program)) func(*core.Program) {
	return func(p *core.Program) {
		l.execs = append(l.execs, nil)
		prog(p)
	}
}

func (l *opLog) streams() [][]core.OpEvent {
	var out [][]core.OpEvent
	for _, ex := range l.execs {
		if len(ex) > 0 {
			out = append(out, ex)
		}
	}
	return out
}

// sameStreams reports the first execution and event where got's op
// stream leaves want's.
func sameStreams(t *testing.T, what string, got, want [][]core.OpEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d executions observed, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range max(len(got[i]), len(want[i])) {
			if j >= len(got[i]) || j >= len(want[i]) {
				t.Fatalf("%s: execution %d has %d events, want %d", what, i+1, len(got[i]), len(want[i]))
			}
			if !reflect.DeepEqual(got[i][j], want[i][j]) {
				t.Fatalf("%s: execution %d, event %d:\n  got  %+v\n  want %+v", what, i+1, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestSourceCCEHOpStream: every one of the 54 executions of
// examples/src/cceh.go does, event for event, what the hand-ported twin's
// does — on the first exploration, and on a second one back to back over
// the same Source.
func TestSourceCCEHOpStream(t *testing.T) {
	observe := func(prog func(*core.Program)) [][]core.OpEvent {
		var log opLog
		cfg := ccehConfig
		cfg.Observer = &log
		if _, err := core.Run(cfg, log.wrap(prog)); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log.streams()
	}
	want := observe(handPortedCCEH())
	if len(want) != 54 {
		t.Fatalf("the hand-ported twin observed %d executions, want 54", len(want))
	}
	src := loadExampleCCEH(t)
	sameStreams(t, "first exploration", observe(src), want)
	sameStreams(t, "second exploration", observe(src), want)
}

// killedSrc has a writer killed, in the failure executions, 600 calls
// deep inside a function holding `defer s.mu.Unlock()`; a checker whose
// assertion fails when the writer's machine died between its two
// flushes (the writer flushes y before x); and a waiter blocked in Join
// on the checker's machine, inside a deferring function, when that
// assertion ends the execution and Teardown unwinds it. The checker
// waits for the waiter to hold gate first: a mutex is the checker's
// state, which no injected failure rolls back, unlike a flag in memory.
const killedSrc = `package main

import "cxl"

type state struct {
	mu, gate *cxl.Mutex
	x, y     cxl.Ptr
	left     uint64
}

func descend(s *state, depth int) uint64 {
	if depth == 0 {
		return hold(s)
	}
	return descend(s, depth-1) + 1
}

func hold(s *state) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	cxl.Store64(s.x, 1)
	cxl.Store64(s.y, 2)
	cxl.Flush(s.y)
	cxl.Fence()
	cxl.Flush(s.x)
	return cxl.Load64(s.x)
}

func leave(s *state) { s.left++ }

func await(s *state, m *cxl.Machine) bool {
	defer leave(s)
	return cxl.Join(m)
}

func Program(r *cxl.Region) {
	s := &state{mu: r.NewMutex("mu"), gate: r.NewMutex("gate"), x: r.AllocAligned(8, 64), y: r.AllocAligned(8, 64)}
	m1 := r.NewMachine("m1")
	m2 := r.NewMachine("m2")
	m3 := r.NewMachine("m3")
	w := m1.Spawn("w", func() { descend(s, 600) })
	m2.Spawn("check", func() {
		for {
			if acquired, _ := s.gate.TryLock(); !acquired {
				break // the waiter holds it
			}
			s.gate.Unlock()
			cxl.Yield()
		}
		cxl.JoinAll(w)
		x, y := cxl.Load64(s.x), cxl.Load64(s.y)
		cxl.Assert(x == 1 || y == 0, "y = %d persisted without x = %d (%s, %t, %v)", y, x, "lost", x == 0, int8(x)-3)
	})
	m3.Spawn("wait", func() {
		s.gate.Lock()
		await(s, m2)
		s.gate.Unlock()
	})
}
`

// killedTwin is killedSrc written against core directly.
func killedTwin(p *core.Program) {
	type state struct {
		mu, gate *core.Mutex
		x, y     core.Addr
		left     uint64
		descend  func(th *core.Thread, depth int) uint64
		hold     func(th *core.Thread) uint64
		awaitFor func(th *core.Thread, m *core.Machine) bool
	}
	s := &state{mu: p.NewMutex("mu"), gate: p.NewMutex("gate"), x: p.AllocAligned(8, 64), y: p.AllocAligned(8, 64)}
	s.descend = func(th *core.Thread, depth int) uint64 {
		if depth == 0 {
			return s.hold(th)
		}
		return s.descend(th, depth-1) + 1
	}
	s.hold = func(th *core.Thread) uint64 {
		s.mu.Lock(th)
		defer s.mu.Unlock(th)
		th.Store64(s.x, 1)
		th.Store64(s.y, 2)
		th.CLFlush(s.y)
		th.SFence()
		th.CLFlush(s.x)
		return th.Load64(s.x)
	}
	s.awaitFor = func(th *core.Thread, m *core.Machine) bool {
		defer func() { s.left++ }()
		return th.Join(m)
	}
	m1 := p.NewMachine("m1")
	m2 := p.NewMachine("m2")
	m3 := p.NewMachine("m3")
	w := m1.Thread("w", func(th *core.Thread) { s.descend(th, 600) })
	m2.Thread("check", func(th *core.Thread) {
		for {
			if acquired, _ := s.gate.TryLock(th); !acquired {
				break
			}
			s.gate.Unlock(th)
			th.Yield()
		}
		th.JoinThreads(w)
		x, y := th.Load64(s.x), th.Load64(s.y)
		th.Assert(x == 1 || y == 0, "y = %d persisted without x = %d (%s, %t, %v)", y, x, "lost", x == 0, int8(x)-3)
	})
	m3.Thread("wait", func(th *core.Thread) {
		s.gate.Lock(th)
		s.awaitFor(th, m2)
		s.gate.Unlock(th)
	})
}

// TestKilledThreadMatchesNativeTwin: a thread killed deep in a call
// chain under a deferred unlock, and one torn down while blocked, leave
// machines that the next phases reuse; the bug set, executions and
// steps stay the native twin's, on a first exploration and a second
// over the same Source. The op stream shows the writer's machine failing
// and the assertion failing, so both unwinds happen.
func TestKilledThreadMatchesNativeTwin(t *testing.T) {
	cfg := core.Config{Workers: 1, ContinueAfterBug: true}
	var twinLog opLog
	twinCfg := cfg
	twinCfg.Observer = &twinLog
	want, err := core.Run(twinCfg, twinLog.wrap(killedTwin))
	if err != nil {
		t.Fatalf("Run(twin): %v", err)
	}
	var fails, asserts int
	for _, ex := range twinLog.streams() {
		for _, ev := range ex {
			switch {
			case ev.Kind == core.OpFail && ev.FailedName == "m1":
				fails++
			case ev.Kind == core.OpBug && ev.Bug.Kind == core.BugAssertion:
				asserts++
			}
		}
	}
	if fails == 0 || asserts != 1 || len(want.Bugs) != 1 {
		t.Fatalf("the twin failed m1 %d times and reported %v; want failures and the one assertion", fails, bugSet(want))
	}
	t.Logf("twin: %d executions, %d steps, m1 failed in %d", want.Stats.Executions, want.Stats.Steps, fails)

	prog, err := load(t, killedSrc).Program("Program")
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	for _, round := range []string{"first", "second"} {
		got, err := core.Run(cfg, prog)
		if err != nil {
			t.Fatalf("%s Run: %v", round, err)
		}
		if !reflect.DeepEqual(bugSet(got), bugSet(want)) {
			t.Errorf("%s exploration's bugs:\n  %v\nwant the twin's:\n  %v", round, bugSet(got), bugSet(want))
		}
		if got.Stats.Executions != want.Stats.Executions || got.Stats.Steps != want.Stats.Steps {
			t.Errorf("%s exploration: %d executions, %d steps; the twin's %d, %d",
				round, got.Stats.Executions, got.Stats.Steps, want.Stats.Executions, want.Stats.Steps)
		}
	}
}
