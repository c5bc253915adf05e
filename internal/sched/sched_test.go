package sched

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestLockStepExecution(t *testing.T) {
	s := New()
	var trace []string
	a := s.NewThread(0, "a", func(th *Thread) {
		trace = append(trace, "a1")
		th.Pause()
		trace = append(trace, "a2")
	})
	b := s.NewThread(0, "b", func(th *Thread) {
		trace = append(trace, "b1")
		th.Pause()
		trace = append(trace, "b2")
	})
	s.Grant(a) // runs a1, pauses
	s.Grant(b) // runs b1, pauses
	s.Grant(a) // runs a2, finishes
	s.Grant(b)
	want := []string{"a1", "b1", "a2", "b2"}
	for i, w := range want {
		if trace[i] != w {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if a.State() != Finished || b.State() != Finished {
		t.Fatalf("states = %v %v", a.State(), b.State())
	}
	s.Teardown()
}

func TestBlockAndWake(t *testing.T) {
	s := New()
	var got int
	cond := false
	a := s.NewThread(0, "a", func(th *Thread) {
		for !cond {
			th.SetBlocked("cond")
			th.Pause()
		}
		got = 42
	})
	s.Grant(a)
	if a.State() != Blocked || a.BlockNote != "cond" {
		t.Fatalf("state = %v (%q), want blocked on cond", a.State(), a.BlockNote)
	}
	cond = true
	a.Wake()
	if a.State() != Runnable || a.BlockNote != "" {
		t.Fatal("wake failed")
	}
	s.Grant(a)
	if got != 42 || a.State() != Finished {
		t.Fatalf("got=%d state=%v", got, a.State())
	}
	s.Teardown()
}

func TestWakeIsNoOpOnNonBlocked(t *testing.T) {
	s := New()
	a := s.NewThread(0, "a", func(th *Thread) {})
	a.Wake()
	if a.State() != Runnable {
		t.Fatal("wake changed a runnable thread")
	}
	s.Grant(a)
	a.Wake()
	if a.State() != Finished {
		t.Fatal("wake resurrected a finished thread")
	}
	s.Teardown()
}

func TestKillParkedThreadUnwinds(t *testing.T) {
	s := New()
	ran := false
	cleaned := false
	a := s.NewThread(0, "a", func(th *Thread) {
		defer func() { cleaned = true }()
		th.Pause()
		ran = true
	})
	s.Grant(a)
	a.Kill()
	s.Teardown()
	if ran {
		t.Fatal("killed thread kept running")
	}
	if !cleaned {
		t.Fatal("defers must run during unwind")
	}
	if a.State() != Killed {
		t.Fatalf("state = %v", a.State())
	}
}

func TestKillSelf(t *testing.T) {
	s := New()
	after := false
	a := s.NewThread(0, "a", func(th *Thread) {
		th.KillSelf()
		after = true
	})
	s.Grant(a)
	if after {
		t.Fatal("KillSelf returned")
	}
	if a.State() != Killed {
		t.Fatalf("state = %v", a.State())
	}
	s.Teardown()
}

// TestUnwindingThreadNeverYields: simulated operations run by deferred
// code while a kill unwinds the stack re-panic instead of yielding or
// running scheduler steps.
func TestUnwindingThreadNeverYields(t *testing.T) {
	s := New()
	var reached []string
	a := s.NewThread(0, "a", func(th *Thread) {
		defer func() {
			defer func() {
				reached = append(reached, "boundary")
				th.Boundary()
				reached = append(reached, "past boundary")
			}()
			reached = append(reached, "pause")
			th.Pause()
			reached = append(reached, "past pause")
		}()
		th.KillSelf()
	})
	s.Grant(a) // a second yield would leave this Grant's successor hanging
	if want := []string{"pause", "boundary"}; !reflect.DeepEqual(reached, want) {
		t.Fatalf("reached %v, want %v", reached, want)
	}
	s.Teardown()
}

func TestKillBeforeFirstGrant(t *testing.T) {
	s := New()
	ran := false
	a := s.NewThread(0, "a", func(th *Thread) { ran = true })
	a.Kill()
	s.Grant(a)
	if ran {
		t.Fatal("killed thread ran")
	}
	s.Teardown()
}

func TestNeverStartedThreadTeardown(t *testing.T) {
	s := New()
	s.NewThread(0, "a", func(th *Thread) { t.Error("must not run") })
	s.Teardown()
}

func TestPanicRouting(t *testing.T) {
	s := New()
	var panicked any
	s.OnPanic = func(th *Thread, v any) { panicked = v }
	zero := 0
	a := s.NewThread(0, "a", func(th *Thread) {
		_ = 1 / zero
	})
	s.Grant(a)
	if panicked == nil {
		t.Fatal("panic not routed")
	}
	if a.State() != Killed {
		t.Fatalf("state = %v", a.State())
	}
	s.Teardown()
}

func TestKillSentinelNotRoutedToOnPanic(t *testing.T) {
	s := New()
	s.OnPanic = func(th *Thread, v any) { t.Errorf("kill sentinel routed as panic: %v", v) }
	a := s.NewThread(0, "a", func(th *Thread) { th.Pause() })
	s.Grant(a)
	a.Kill()
	s.Teardown()
}

func TestGrantToExitedPanics(t *testing.T) {
	s := New()
	a := s.NewThread(0, "a", func(th *Thread) {})
	s.Grant(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
		s.Teardown()
	}()
	s.Grant(a)
}

// TestDirectSwitchOrdering: the baton goes a→b→a without passing the
// engine goroutine; the first switch to b starts its goroutine; a boundary
// with no switch keeps the baton; Pause ends the execution.
func TestDirectSwitchOrdering(t *testing.T) {
	s := New()
	var trace []string
	var a, b *Thread
	a = s.NewThread(0, "a", func(th *Thread) {
		trace = append(trace, "a1")
		th.Boundary()
		th.SwitchTo(b)
		trace = append(trace, "a2")
		th.Boundary()
		trace = append(trace, "a3")
		th.Pause()
		trace = append(trace, "a4")
	})
	b = s.NewThread(1, "b", func(th *Thread) {
		trace = append(trace, "b1")
		th.Boundary()
		th.SwitchTo(a)
		trace = append(trace, "b2")
	})
	s.Grant(a)
	if want := []string{"a1", "b1", "a2", "a3"}; !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	if a.State() != Runnable || b.State() != Runnable {
		t.Fatalf("states = %v %v, want both parked runnable", a.State(), b.State())
	}
	s.Teardown()
	if len(trace) != 4 {
		t.Fatalf("teardown let a thread run on: %v", trace)
	}
	if a.State() != Killed || b.State() != Killed {
		t.Fatalf("states after teardown = %v %v", a.State(), b.State())
	}
}

// TestKilledCarrierParksUntilTeardown: a thread whose machine fails
// during a scheduler step it carries is Killed but keeps carrying — it
// hands the baton on (to a thread, or back to the engine) like any other,
// and only unwinds when Teardown resumes it.
func TestKilledCarrierParksUntilTeardown(t *testing.T) {
	for _, toEngine := range []bool{false, true} {
		t.Run(fmt.Sprintf("toEngine=%v", toEngine), func(t *testing.T) {
			s := New()
			var ranOn, cleaned, bRan bool
			var a, b *Thread
			a = s.NewThread(0, "a", func(th *Thread) {
				defer func() { cleaned = true }()
				th.Boundary()
				th.Kill() // what failMachine does to the carrier
				if toEngine {
					th.Pause()
				} else {
					th.SwitchTo(b)
				}
				ranOn = true
			})
			b = s.NewThread(1, "b", func(th *Thread) {
				bRan = true
				th.Pause()
			})
			s.Grant(a)
			if bRan == toEngine {
				t.Fatalf("b ran = %v", bRan)
			}
			if a.State() != Killed || cleaned {
				t.Fatalf("carrier must park killed, not unwind: state %v, unwound %v", a.State(), cleaned)
			}
			s.Teardown()
			if ranOn || !cleaned {
				t.Fatalf("after teardown: ran on = %v, unwound = %v", ranOn, cleaned)
			}
		})
	}
}

// TestSuccessorHook: an exiting thread's goroutine asks OnExit who gets
// the baton — after its state is final and after OnPanic — and hands it
// over directly; a nil successor returns the baton to the engine.
func TestSuccessorHook(t *testing.T) {
	zero := 0
	cases := []struct {
		name  string
		fn    func(*Thread)
		state State
		panic bool
	}{
		{"return", func(*Thread) {}, Finished, false},
		{"killself", func(th *Thread) { th.KillSelf() }, Killed, false},
		{"panic", func(*Thread) { _ = 1 / zero }, Killed, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			var events []string
			var a, b *Thread
			s.OnPanic = func(th *Thread, v any) { events = append(events, "panic:"+th.Name) }
			s.OnExit = func(th *Thread) *Thread {
				events = append(events, fmt.Sprintf("exit:%s:%v", th.Name, th.State()))
				if th == a {
					return b
				}
				return nil
			}
			a = s.NewThread(0, "a", c.fn)
			b = s.NewThread(0, "b", func(*Thread) { events = append(events, "b runs") })
			s.Grant(a)
			want := []string{fmt.Sprintf("exit:a:%v", c.state), "b runs", "exit:b:finished"}
			if c.panic {
				want = append([]string{"panic:a"}, want...)
			}
			if !reflect.DeepEqual(events, want) {
				t.Fatalf("events = %v, want %v", events, want)
			}
			s.Teardown()
		})
	}
}

func TestSuccessorHookNotConsultedDuringTeardown(t *testing.T) {
	s := New()
	s.OnExit = func(th *Thread) *Thread {
		t.Errorf("OnExit consulted for %s during teardown", th.Name)
		return nil
	}
	a := s.NewThread(0, "a", func(th *Thread) { th.Pause() })
	b := s.NewThread(0, "b", func(th *Thread) { th.Pause() })
	s.Grant(a)
	s.Grant(b)
	s.Teardown()
	if a.State() != Killed || b.State() != Killed {
		t.Fatalf("states = %v %v", a.State(), b.State())
	}
}

// TestSuccessorHookPanicRouted: the hook runs in the wrapper's deferred
// exit; a panic there must reach OnPanic and end the execution, not the
// process.
func TestSuccessorHookPanicRouted(t *testing.T) {
	s := New()
	var got any
	s.OnPanic = func(th *Thread, v any) { got = v }
	s.OnExit = func(*Thread) *Thread { panic("boom") }
	a := s.NewThread(0, "a", func(*Thread) {})
	s.Grant(a)
	if got != "boom" {
		t.Fatalf("OnPanic got %v, want boom", got)
	}
	if a.State() != Finished {
		t.Fatalf("state = %v: a hook panic must not rewrite the thread's outcome", a.State())
	}
	s.Teardown()
}

// census counts the package's goroutines by role, from their stacks, so a
// count is exact whatever else the test binary runs: carriers, and drivers —
// goroutines a go statement in this package started, of which there must
// be none, since whoever calls Grant or Teardown resumes the carriers.
type census struct{ drivers, carriers int }

func count() census {
	buf := make([]byte, 1<<16)
	for n := runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	var c census
	for _, g := range strings.Split(string(buf), "\n\n") {
		switch {
		case strings.Contains(g, "sched.(*Thread).carry("):
			c.carriers++
		case strings.Contains(g, "\ncreated by repro/internal/sched."):
			c.drivers++
		}
	}
	return c
}

func (c census) plus(drivers, carriers int) census {
	return census{c.drivers + drivers, c.carriers + carriers}
}

// settle waits for the census to reach exactly want: a carrier that Close
// stopped is counted until it has run off its stack.
func settle(t *testing.T, want census) {
	t.Helper()
	for wait := time.Now().Add(2 * time.Second); count() != want; {
		if time.Now().After(wait) {
			t.Fatalf("goroutines: %+v, want %+v", count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestManyExecutionsNoGoroutineLeak(t *testing.T) {
	// Simulates the checker's execution restart loop: every execution
	// creates its threads and tears them down; each fn must be unwound each
	// time, whichever thread the execution ended on, and the carriers are
	// reused rather than made afresh — from the first execution on there is
	// exactly one carrier per thread of the largest execution, and no other
	// goroutine — until Close ends them.
	const most = 4
	before := count()
	s := New()
	for exec := 0; exec < 200; exec++ {
		switch exec % 3 {
		case 0:
			// Every thread entered from the engine and left parked.
			for i := 0; i < 4; i++ {
				th := s.NewThread(i%2, "w", func(th *Thread) {
					for j := 0; j < 3; j++ {
						th.Pause()
					}
				})
				s.Grant(th) // run one step, leave parked
			}
		case 1:
			// A ring of direct switches that ends when the first thread
			// exits without a successor; the others stay parked.
			ths := make([]*Thread, 4)
			for i := range ths {
				next := (i + 1) % len(ths)
				ths[i] = s.NewThread(i%2, "w", func(th *Thread) {
					for j := 0; j < 3; j++ {
						th.Boundary()
						th.SwitchTo(ths[next])
					}
				})
			}
			s.Grant(ths[0])
		case 2:
			// A chain of exits, each naming the next thread its successor;
			// the execution ends in the last thread's exit path.
			ths := make([]*Thread, 4)
			for i := range ths {
				ths[i] = s.NewThread(i%2, "w", func(*Thread) {})
			}
			s.OnExit = func(th *Thread) *Thread {
				if th.ID+1 < len(ths) {
					return ths[th.ID+1]
				}
				return nil
			}
			s.Grant(ths[0])
			s.OnExit = nil
		}
		s.Teardown()
		for _, th := range s.threads {
			if th.started && !th.exited {
				t.Fatalf("exec %d: thread %d survived", exec, th.ID)
			}
		}
		if got := count(); got != before.plus(0, most) {
			t.Fatalf("exec %d: %+v, want no driver and %d carriers more than %+v", exec, got, most, before)
		}
		s.Reset()
	}
	s.Close()
	settle(t, before)
}

// TestCarrierSurvivesKillAndPanic: a carrier whose fn was unwound by the
// kill sentinel, or panicked into OnPanic, waits and carries the struct's
// next fn — no execution after the first starts a goroutine.
func TestCarrierSurvivesKillAndPanic(t *testing.T) {
	before := count()
	s := New()
	var panics int
	s.OnPanic = func(*Thread, any) { panics++ }
	zero := 0
	fns := []func(*Thread){
		func(th *Thread) { th.Pause() },    // left parked: Teardown unwinds it
		func(th *Thread) { th.KillSelf() }, // unwinds itself
		func(*Thread) { _ = 1 / zero },     // panics
		func(*Thread) {},                   // returns
		func(th *Thread) { th.Pause(); th.Pause() },
	}
	for exec, fn := range fns {
		s.Grant(s.NewThread(0, "a", fn))
		s.Teardown()
		if got := count(); got != before.plus(0, 1) {
			t.Fatalf("exec %d: %+v, want no driver and one carrier more than %+v", exec, got, before)
		}
		s.Reset()
	}
	if panics != 1 {
		t.Fatalf("OnPanic ran %d times, want 1", panics)
	}
	s.Close()
	settle(t, before)
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Runnable: "runnable", Blocked: "blocked", Finished: "finished", Killed: "killed",
		State(9): "unknown",
	} {
		if st.String() != want {
			t.Errorf("State(%d) = %q, want %q", st, st.String(), want)
		}
	}
}

// BenchmarkSwitchTo prices one handoff: a ring of threads, each passing
// the baton to the next at every boundary.
func BenchmarkSwitchTo(b *testing.B) {
	const ring = 4
	s := New()
	ths := make([]*Thread, ring)
	left := b.N
	for i := range ths {
		next := (i + 1) % ring
		ths[i] = s.NewThread(0, "r", func(th *Thread) {
			for left > 0 {
				left--
				th.Boundary()
				th.SwitchTo(ths[next])
			}
		})
	}
	b.ResetTimer()
	s.Grant(ths[0])
	b.StopTimer()
	s.Teardown()
	s.Close()
}
