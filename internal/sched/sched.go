// Package sched provides the deterministic cooperative scheduler CXLMC
// runs simulated threads on. The paper's implementation (§5) forks real
// processes and context-switches ucontext threads under a scheduler so
// every execution replays deterministically; here each simulated thread
// runs on a carrier coroutine (iter.Pull), and exactly one of them — the
// one holding the baton — is ever running. The engine goroutine enters an
// execution with Grant, which resumes the granted thread's carrier; from
// then on the thread holding the baton decides at each of its instruction
// boundaries who runs next and either keeps the baton (no call, no
// switch), hands it to that thread (SwitchTo: it yields to Grant, which
// resumes the other — two coroutine switches) or, when the execution is
// over, returns it to the engine (Pause). All checker state can therefore
// be accessed without locks, and a fixed seed fixes the entire schedule
// (paper §3.2: only crash non-determinism is model checked; the thread
// interleaving is a deterministic function of the seed).
//
// There is no watchdog, as in the paper's runtime: a thread's fn must not
// block outside the simulated API (one that does hangs its execution) and
// must not call runtime.Goexit, which iter.Pull re-raises in the goroutine
// that called Grant or Teardown.
//
// The fork-and-restart of §5 is a carrier's lifecycle. A carrier belongs to
// a Thread struct, not to an execution: its thread's fn ends with the
// execution (returned, or unwound by Teardown), and the carrier waits at
// its yield until a later execution's NewThread reuses the struct and
// grants it, so a restart starts no goroutine and grows no fresh stack.
// Carriers never outlive their scheduler's Close, and the package starts
// no goroutine of its own.
package sched

import (
	"fmt"
	"iter"
	"time"
)

// State is a simulated thread's scheduling state.
type State uint8

// Thread states.
const (
	// Runnable threads may be granted the baton.
	Runnable State = iota
	// Blocked threads wait on a condition (mutex, join) and are skipped
	// until explicitly made runnable again.
	Blocked
	// Finished threads ran their function to completion.
	Finished
	// Killed threads belong to a failed machine or were torn down; their
	// fn unwinds on its next grant.
	Killed
)

func (s State) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case Blocked:
		return "blocked"
	case Finished:
		return "finished"
	case Killed:
		return "killed"
	}
	return "unknown"
}

// killSentinel is panicked inside a thread to unwind it when its machine
// fails or the execution is torn down.
type killSentinel struct{}

// Thread is one simulated thread. Fields are only touched while holding
// the baton (or by the engine goroutine while no thread runs), so no
// locking is needed; the coroutine switches provide the happens-before
// edges.
type Thread struct {
	ID      int
	Machine int
	Name    string

	sch   *Scheduler
	fn    func(*Thread)
	state State
	// resume and stop drive the struct's carrier coroutine, made on its
	// first grant and kept across executions; yield is the carrier's side
	// of the switch. NewThread keeps all three.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	// exited is set by the carrier before it passes the baton on for the
	// last time this execution: fn is over and must never be granted again.
	exited bool
	// started marks a thread granted this execution.
	started bool
	// unwinding is set when the kill sentinel is thrown. A thread can be
	// Killed without unwinding yet: the baton carrier whose machine fails
	// during a scheduler step it runs keeps carrying, parks like any other
	// killed thread and unwinds at Teardown.
	unwinding bool
	// BlockNote describes what a blocked thread waits for (diagnostics).
	BlockNote string
}

// State returns the thread's scheduling state.
func (t *Thread) State() State { return t.state }

// Scheduler coordinates the baton. It is reused across executions via
// Teardown and Reset; carriers never outlive its Close.
type Scheduler struct {
	threads []*Thread
	// free holds Thread structs from torn-down executions — with their
	// carriers — reused by NewThread so the per-execution hot path neither
	// reallocates them nor makes coroutines.
	free []*Thread
	// next is whom the baton goes to when its holder yields; nil returns it
	// to the engine.
	next *Thread
	// tearing is set while Teardown unwinds the threads.
	tearing bool
	// OnPanic receives panics escaping a thread's function (real program
	// bugs like division by zero) or its OnExit hook. The kill sentinel is
	// filtered out.
	OnPanic func(t *Thread, v any)
	// OnExit, when set, is asked by an exiting thread — after its state is
	// final and OnPanic has run — which thread gets the baton next; nil
	// returns it to the engine goroutine, as does an unset hook. It is not
	// consulted for threads unwound by Teardown.
	OnExit func(t *Thread) *Thread
}

// New returns an empty scheduler.
func New() *Scheduler { return &Scheduler{} }

// Reset prepares the scheduler for the next execution after Teardown:
// every thread struct, with its waiting carrier, moves to the free list
// for reuse.
func (s *Scheduler) Reset() {
	s.free = append(s.free, s.threads...)
	s.threads = s.threads[:0]
}

// Close ends the scheduler's life after Teardown: every waiting carrier is
// stopped before it returns. The scheduler must not be used again.
func (s *Scheduler) Close() {
	for _, ts := range [][]*Thread{s.threads, s.free} {
		for _, t := range ts {
			if t.stop != nil {
				t.stop()
			}
		}
	}
	s.threads, s.free = nil, nil
}

// NewThread registers a simulated thread running fn. It runs only when
// granted, on the struct's carrier if an earlier execution left one.
func (s *Scheduler) NewThread(machine int, name string, fn func(*Thread)) *Thread {
	var t *Thread
	if n := len(s.free); n > 0 {
		t = s.free[n-1]
		s.free = s.free[:n-1]
		*t = Thread{resume: t.resume, stop: t.stop, yield: t.yield}
	} else {
		t = &Thread{}
	}
	t.ID = len(s.threads)
	t.Machine = machine
	t.Name = name
	t.sch = s
	t.fn = fn
	s.threads = append(s.threads, t)
	return t
}

// carry is a carrier coroutine's body: each resume that finds it waiting at
// its yield runs the struct's current fn, and Close's stop ends it.
func (t *Thread) carry(yield func(struct{}) bool) {
	t.yield = yield
	for {
		t.run()
		if !yield(struct{}{}) {
			return
		}
	}
}

// run runs fn once: it converts kill sentinels into clean exits, routes
// real panics to OnPanic, and always names the baton's next holder.
func (t *Thread) run() {
	defer func() { t.exit(recover()) }()
	if t.state == Killed {
		t.unwind()
	}
	t.fn(t)
}

// exit finalizes the thread's state and names the baton's next holder —
// the successor OnExit names, else the engine.
func (t *Thread) exit(v any) {
	s := t.sch
	if v == nil {
		t.state = Finished
	} else if _, isKill := v.(killSentinel); !isKill {
		t.state = Killed
		if s.OnPanic != nil {
			s.OnPanic(t, v)
		}
	}
	t.exited = true
	if !s.tearing {
		s.handTo(t.successor())
	}
}

// successor asks OnExit for the next baton holder. The hook runs inside
// the wrapper's deferred exit, where an escaping panic would take the
// process down; it is routed to OnPanic like any other and the baton goes
// back to the engine.
func (t *Thread) successor() (next *Thread) {
	s := t.sch
	if s.OnExit == nil {
		return nil
	}
	defer func() {
		if v := recover(); v != nil {
			next = nil
			if _, isKill := v.(killSentinel); !isKill && s.OnPanic != nil {
				s.OnPanic(t, v)
			}
		}
	}()
	return s.OnExit(t)
}

// unwind throws the kill sentinel.
func (t *Thread) unwind() {
	t.unwinding = true
	panic(killSentinel{})
}

// park yields the baton to Grant, which passes it to whomever
// Scheduler.next names, and returns when the thread is resumed; it unwinds
// the thread instead if it was killed meanwhile or its carrier is being
// stopped.
func (t *Thread) park() {
	if !t.yield(struct{}{}) || t.state == Killed {
		t.unwind()
	}
}

// handTo names u the baton's next holder (nil: the engine).
func (s *Scheduler) handTo(u *Thread) {
	if u != nil && u.exited {
		panic(fmt.Sprintf("sched: grant to exited thread %d (%s)", u.ID, u.Name))
	}
	s.next = u
}

// pull resumes t's carrier until t yields the baton, making the carrier on
// the struct's first grant.
func (t *Thread) pull() {
	t.started = true
	if t.resume == nil {
		t.resume, t.stop = iter.Pull(t.carry)
	}
	t.resume()
}

// relay resumes threads in turn — whomever the last one named — until the
// baton goes back to the engine.
func (s *Scheduler) relay() {
	for t := s.next; t != nil; t = s.next {
		t.pull()
	}
}

// unwindParked resumes every parked thread — granted this execution and
// not exited — killed, so that it unwinds.
func (s *Scheduler) unwindParked() {
	for _, t := range s.threads {
		if !t.started || t.exited {
			continue
		}
		t.state = Killed
		t.pull()
		if !t.exited {
			panic(fmt.Sprintf("sched: thread %d (%s) survived teardown", t.ID, t.Name))
		}
	}
}

// Grant enters an execution: the baton goes to t, and Grant returns when
// a thread hands it back to the engine goroutine, with Pause or by
// exiting without a successor. In between, Grant resumes whichever thread
// the baton holder names. Granting a killed thread unwinds it. The thread
// must not have exited.
func (s *Scheduler) Grant(t *Thread) {
	s.handTo(t)
	s.relay()
}

// GrantTimeout is Grant, reporting true: there is no watchdog, and d is
// ignored. It keeps the signature the cxlbench sched.handoff_timeout_ns
// probe calls, so that probe now times a plain grant.
func (s *Scheduler) GrantTimeout(t *Thread, d time.Duration) bool {
	s.Grant(t)
	return true
}

// Boundary marks an instruction boundary: the thread stops running its
// own code and is about to run scheduler steps. A thread that is
// unwinding from a kill — e.g. in a deferred unlock — re-panics
// immediately, so unwinding never runs scheduler steps. It must be called
// from t's carrier.
func (t *Thread) Boundary() {
	if t.unwinding {
		panic(killSentinel{})
	}
}

// SwitchTo hands the baton to u — t yields to Grant, which resumes u's
// carrier, making it only if u's struct has none — and parks until t
// is granted again. If t was killed while parked, SwitchTo unwinds it
// instead of returning. It must be called from t's carrier, after
// Boundary; u must not be t and must not have exited.
func (t *Thread) SwitchTo(u *Thread) {
	t.sch.handTo(u)
	t.park()
}

// Pause yields the baton back to the engine goroutine and parks until the
// next grant. If the thread was killed while parked, Pause unwinds it
// instead of returning. A thread unwinding from a kill that calls Pause —
// e.g. in a deferred unlock — re-panics immediately without yielding, so
// unwinding never escapes back to the engine. It must be called from t's
// carrier.
func (t *Thread) Pause() {
	t.Boundary()
	t.sch.handTo(nil)
	t.park()
}

// SetBlocked marks the thread blocked with a description. The caller then
// gives the baton away and re-checks its condition when it is granted
// again, which only happens after something marked it runnable.
func (t *Thread) SetBlocked(note string) {
	t.state = Blocked
	t.BlockNote = note
}

// Wake makes a blocked thread runnable again. It is a no-op for threads
// in any other state (in particular killed threads stay killed).
func (t *Thread) Wake() {
	if t.state == Blocked {
		t.state = Runnable
		t.BlockNote = ""
	}
}

// Kill marks the thread killed. A parked thread unwinds on its next
// grant; an exited thread is left alone. Kill must not be called on a
// thread running its own code — use KillSelf for that — but may be on the
// thread carrying the baton through a scheduler step: it parks like any
// other when it passes the baton on.
func (t *Thread) Kill() {
	if t.state == Finished && t.exited {
		return
	}
	t.state = Killed
}

// KillSelf unwinds the calling thread immediately. It must be called from
// t's carrier; it does not return.
func (t *Thread) KillSelf() {
	t.state = Killed
	t.unwind()
}

// Teardown unwinds every thread that has not exited. Call it at the end of
// each execution: no thread's fn outlives its execution, and every carrier
// is left waiting for the next one (or for Close).
func (s *Scheduler) Teardown() {
	s.tearing = true
	s.unwindParked()
	s.tearing = false
}
