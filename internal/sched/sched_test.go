package sched

import (
	"fmt"
	"reflect"
	"runtime"
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
// engine goroutine; the first switch to b starts its goroutine; Continue
// keeps the baton; Pause ends the execution.
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
		th.Continue()
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

// settle waits for the goroutine count to fall to at most want: a carrier
// that returned is not counted out until it has run off its stack.
func settle(t *testing.T, want int) {
	t.Helper()
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(wait) {
			t.Fatalf("goroutines: %d, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestManyExecutionsNoGoroutineLeak(t *testing.T) {
	// Simulates the checker's execution restart loop: every execution
	// creates its threads and tears them down; each fn must be unwound each
	// time, whichever goroutine the execution ended on, and the carriers
	// are reused rather than spawned afresh — the count never exceeds one
	// carrier per thread of the largest execution — until Close ends them.
	const most = 4
	before := runtime.NumGoroutine()
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
		if n := runtime.NumGoroutine(); n > before+most {
			t.Fatalf("exec %d: %d goroutines, want at most %d + %d carriers", exec, n, before, most)
		}
		s.Reset()
	}
	s.Close()
	settle(t, before)
}

// TestGoexitRetiresCarrier: a thread whose fn calls runtime.Goexit (as
// t.Fatal does) ends its carrier; the struct must drop its claim on it, so
// the next execution that reuses the struct runs on a fresh carrier
// instead of blocking on a resume nobody receives.
func TestGoexitRetiresCarrier(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	a := s.NewThread(0, "a", func(*Thread) { runtime.Goexit() })
	s.Grant(a)
	if a.State() != Finished {
		t.Fatalf("state = %v, want finished", a.State())
	}
	s.Teardown()
	s.Reset()
	ran := false
	b := s.NewThread(0, "b", func(*Thread) { ran = true })
	if b != a {
		t.Fatal("the second execution did not reuse the struct")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Grant(b)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the second execution's grant never came back")
	}
	if !ran || b.State() != Finished {
		t.Fatalf("ran = %v, state = %v", ran, b.State())
	}
	s.Teardown()
	s.Close()
	settle(t, before)
}

// TestCarrierSurvivesKillAndPanic: a carrier whose fn was unwound by the
// kill sentinel, or panicked into OnPanic, parks and carries the struct's
// next fn — no execution after the first spawns a goroutine.
func TestCarrierSurvivesKillAndPanic(t *testing.T) {
	before := runtime.NumGoroutine()
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
		if n := runtime.NumGoroutine(); n > before+1 {
			t.Fatalf("exec %d: %d goroutines, want at most %d + 1 carrier", exec, n, before)
		}
		s.Reset()
	}
	if panics != 1 {
		t.Fatalf("OnPanic ran %d times, want 1", panics)
	}
	s.Close()
	settle(t, before)
}

// TestWatchdogCountsBatonMovements: an execution far longer than the
// budget is not a stall as long as the baton keeps moving — staying with
// the same thread counts.
func TestWatchdogCountsBatonMovements(t *testing.T) {
	const d = 20 * time.Millisecond
	s := New()
	var a, b *Thread
	a = s.NewThread(0, "a", func(th *Thread) {
		for end := time.Now().Add(5 * d); time.Now().Before(end); {
			time.Sleep(d / 10)
			th.Boundary()
			th.Continue()
		}
		th.Boundary()
		th.SwitchTo(b)
	})
	b = s.NewThread(0, "b", func(th *Thread) {
		for end := time.Now().Add(5 * d); time.Now().Before(end); {
			time.Sleep(d / 10)
			th.Boundary()
			th.Continue()
		}
	})
	start := time.Now()
	if !s.GrantTimeout(a, d) {
		t.Fatalf("watchdog fired on a live execution after %v", time.Since(start))
	}
	if took := time.Since(start); took < 10*d {
		t.Fatalf("execution took %v, want at least %v", took, 10*d)
	}
	if a.Wedged() || b.Wedged() {
		t.Fatal("live threads marked wedged")
	}
	s.Teardown()
	s.Reset()
}

// TestWatchdogBlamesCurrentHolder: the thread that stalls is the one the
// baton was switched to, not the one the engine granted; it is reported
// after more than one and at most two periods, and unwinds silently —
// its successor hook unasked — when it reaches its next boundary.
func TestWatchdogBlamesCurrentHolder(t *testing.T) {
	const d = 100 * time.Millisecond
	s := New()
	s.OnExit = func(th *Thread) *Thread {
		t.Errorf("OnExit consulted for %s", th.Name)
		return nil
	}
	unblock := make(chan struct{})
	gone := make(chan struct{})
	ranOn := false
	var a, b *Thread
	a = s.NewThread(0, "a", func(th *Thread) {
		th.Boundary()
		th.SwitchTo(b)
	})
	b = s.NewThread(1, "b", func(th *Thread) {
		defer close(gone)
		<-unblock // blocks outside the simulated API
		th.Boundary()
		ranOn = true
	})
	rearms := 0
	start := time.Now()
	wedged := s.GrantWatched(a, func() time.Duration { rearms++; return d })
	took := time.Since(start)
	if wedged != b || !b.Wedged() || a.Wedged() {
		t.Fatalf("wedged = %v (a %v, b %v), want b", wedged, a.Wedged(), b.Wedged())
	}
	if took <= d || took > 2*d+250*time.Millisecond {
		t.Fatalf("stall detected after %v, want within (%v, %v]", took, d, 2*d)
	}
	if rearms != 2 {
		t.Fatalf("budget asked %d times, want once to arm and once to re-arm", rearms)
	}
	s.Teardown() // unwinds a, skips b
	if a.State() != Killed {
		t.Fatalf("a = %v after teardown", a.State())
	}
	s.Close() // ends a's carrier; waits for nothing of b's
	close(unblock)
	<-gone
	if ranOn {
		t.Fatal("abandoned thread ran past its next boundary")
	}
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
