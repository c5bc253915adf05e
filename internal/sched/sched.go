// Package sched provides the deterministic cooperative scheduler CXLMC
// runs simulated threads on. The paper's implementation (§5) forks real
// processes and context-switches ucontext threads under a scheduler so
// every execution replays deterministically; here each simulated thread
// runs on a carrier coroutine (iter.Pull), one driver goroutine per
// scheduler runs the coroutines, and exactly one of them — the one holding
// the baton — is ever running. The engine goroutine enters an execution
// with Grant, one channel round trip to the driver; from then on the
// thread holding the baton decides at each of its instruction boundaries
// who runs next and either keeps the baton (Continue, no switch), hands it
// to that thread (SwitchTo: it yields to the driver, which resumes the
// other — two coroutine switches) or, when the execution is over, returns
// it to the engine (Pause). All checker state can therefore be accessed
// without locks, and a fixed seed fixes the entire schedule (paper §3.2:
// only crash non-determinism is model checked; the thread interleaving is
// a deterministic function of the seed).
//
// The driver, not the engine, resumes the coroutines for two reasons. A
// coroutine cannot be walked away from, and GrantWatched must be able to
// abandon a thread blocked in user code: the engine abandons the driver
// instead, which is stuck with it. And a runtime.Goexit in a thread's fn
// is re-raised in the goroutine that resumed it: the driver it ends hands
// the grant or teardown it was serving to a fresh driver.
//
// The fork-and-restart of §5 is a carrier's lifecycle. A carrier belongs to
// a Thread struct, not to an execution: its thread's fn ends with the
// execution (returned, or unwound by Teardown), and the carrier waits at
// its yield until a later execution's NewThread reuses the struct and
// grants it, so a restart starts no goroutine and grows no fresh stack.
// Carriers and the driver never outlive their scheduler's Close.
package sched

import (
	"fmt"
	"iter"
	"slices"
	"sync/atomic"
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
// locking is needed; the driver's request channels and the coroutine
// switches provide the happens-before edges.
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

// Wedged reports whether the watchdog abandoned the thread: its carrier is
// stuck in user code outside the simulated API. It is the one question a
// carrier that no longer runs in lock-step may ask of the scheduler, hence
// answered from the atomic heartbeat word alone. A wedged thread that
// later resumes unwinds at its next instruction boundary without touching
// scheduler state.
func (t *Thread) Wedged() bool {
	v := t.sch.beat.Load()
	return v&beatAbandoned != 0 && int(v&beatHolder) == t.ID
}

// State returns the thread's scheduling state.
func (t *Thread) State() State { return t.state }

// The heartbeat word (Scheduler.beat): the low bits name the thread that
// holds the baton, the bits above count baton movements, and the top bit
// is set once by the watchdog when it gives up on the holder. Packing all
// three into one word makes "the holder moved on" against "the watchdog
// gave up" a single compare-and-swap race with exactly one winner.
const (
	beatHolderBits = 20
	beatHolder     = 1<<beatHolderBits - 1
	beatAbandoned  = 1 << 63
)

// Scheduler coordinates the baton. It is reused across executions via
// Teardown and Reset; carriers and the driver never outlive its Close.
type Scheduler struct {
	threads []*Thread
	// free holds Thread structs from torn-down executions — with their
	// carriers — reused by NewThread so the per-execution hot path neither
	// reallocates them nor makes coroutines.
	free []*Thread
	// next is whom the baton goes to when its holder yields to the driver;
	// nil returns it to the engine.
	next *Thread
	// req carries the engine's requests to the driver — a grant of next, or
	// a teardown while tearing is set — and back the driver's answer that
	// the baton is back. Both are made with the driver, on the first
	// request.
	req, back chan struct{}
	// watchdog is the reusable GrantWatched timer, lazily created so the
	// no-timeout hot path stays allocation free.
	watchdog *time.Timer
	// beat is the watchdog heartbeat, zero unless a watched grant is in
	// progress, so the unwatched hot path pays one load per baton movement.
	beat atomic.Uint64
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

// New returns an empty scheduler. Its driver starts with the first grant.
func New() *Scheduler { return &Scheduler{} }

// Reset prepares the scheduler for the next execution after Teardown:
// every thread struct, with its waiting carrier, moves to the free list
// for reuse. It must not be called if a thread wedged this execution — the
// abandoned thread still holds its Thread and reads the scheduler's
// heartbeat word, so the whole scheduler must be closed and discarded
// instead.
func (s *Scheduler) Reset() {
	s.free = append(s.free, s.threads...)
	s.threads = s.threads[:0]
}

// Close ends the scheduler's life after Teardown: every waiting carrier is
// stopped before it returns, and the driver ends. A wedged thread's carrier
// is not waiting: it ends on its own at its next instruction boundary, or
// never, and with it the driver stuck resuming it; Close waits for neither.
// The scheduler must not be used again.
func (s *Scheduler) Close() {
	var wedged *Thread
	if v := s.beat.Load(); v&beatAbandoned != 0 {
		wedged = s.threads[v&beatHolder]
	}
	for _, ts := range [][]*Thread{s.threads, s.free} {
		for _, t := range ts {
			if t != wedged && t.stop != nil {
				t.stop()
			}
		}
	}
	if s.req != nil {
		close(s.req)
	}
	s.threads, s.free = nil, nil
}

// NewThread registers a simulated thread running fn. It runs only when
// granted, on the struct's carrier if an earlier execution left one.
func (s *Scheduler) NewThread(machine int, name string, fn func(*Thread)) *Thread {
	if len(s.threads) > beatHolder {
		panic("sched: too many threads")
	}
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
// its yield runs the struct's current fn, and Close's stop ends it. So
// does the end of a wedged thread's fn: nobody resumes it again.
func (t *Thread) carry(yield func(struct{}) bool) {
	t.yield = yield
	for t.run() && yield(struct{}{}) {
	}
}

// run runs fn once: it converts kill sentinels into clean exits, routes
// real panics to OnPanic, and always names the baton's next holder. It
// reports whether the carrier may wait for a later execution.
func (t *Thread) run() (carry bool) {
	returned := false
	defer func() { carry = t.exit(recover(), returned) }()
	if t.state == Killed {
		t.unwind()
	}
	t.fn(t)
	returned = true
	return
}

// exit finalizes the thread's state and names the baton's next holder —
// the successor OnExit names, else the engine — unless the watchdog
// abandoned the thread, in which case it returns false without touching
// scheduler state (nobody is listening) and the carrier ends. An exit that
// is neither a return nor a panic (v nil, returned false) is
// runtime.Goexit: the carrier ends after this deferred call and its resume
// re-raises the Goexit in the driver, so the struct drops its claim on it
// and its next grant makes a new one.
func (t *Thread) exit(v any, returned bool) bool {
	if t.Wedged() {
		return false
	}
	s := t.sch
	if v == nil {
		t.state = Finished
		if !returned {
			t.resume, t.stop, t.yield = nil, nil, nil
		}
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
	return true
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

// park yields the baton to the driver, which passes it to whomever
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

// beatTo records on the heartbeat word that the baton moves to holder (nil:
// stays with the holder it names). It returns false when the watchdog
// abandoned the holder first: the engine has moved on.
func (s *Scheduler) beatTo(holder *Thread) bool {
	v := s.beat.Load()
	if v == 0 {
		return true
	}
	h := v & beatHolder
	if holder != nil {
		h = uint64(holder.ID)
	}
	return v&beatAbandoned == 0 && s.beat.CompareAndSwap(v, (v>>beatHolderBits+1)<<beatHolderBits|h)
}

// call hands the driver a request — a grant of t, or a teardown when t is
// nil — starting the driver on the first one.
func (s *Scheduler) call(t *Thread) {
	if t != nil {
		s.handTo(t)
	}
	if s.req == nil {
		s.req, s.back = make(chan struct{}), make(chan struct{})
		go s.drive(false)
	}
	s.req <- struct{}{}
}

// drive is the driver goroutine. It serves the engine's requests one at a
// time — a teardown unwinds the parked threads, a grant relays the baton —
// and answers each once the baton is back; a resumed driver first finishes
// the request a thread's runtime.Goexit took its predecessor from. It ends
// when Close closes req, or when the watchdog has abandoned the holder:
// nobody waits for the answer.
func (s *Scheduler) drive(resumed bool) {
	returned := false
	defer func() {
		// A runtime.Goexit re-raised by a resume: hand the request on,
		// unless the engine has abandoned it.
		if !returned && s.beat.Load()&beatAbandoned == 0 {
			go s.drive(true)
		}
	}()
	for ; ; resumed = false {
		if !resumed {
			if _, open := <-s.req; !open {
				break
			}
		}
		if s.tearing {
			s.unwindParked()
		} else if !s.relay(resumed) {
			break
		}
		s.back <- struct{}{}
	}
	returned = true
}

// relay resumes threads in turn — whomever the last one named — until the
// baton goes back to the engine, and reports whether it did. Every move
// beats the heartbeat first, which also orders each earlier switch before
// an abandonment. A failed beat means the watchdog abandoned held, the
// holder the word names (unknown to a resumed driver until it moves the
// baton, and gone with the Goexit): its carrier is waiting or over, so
// relay stops it and leaves the rest to the engine.
func (s *Scheduler) relay(resumed bool) bool {
	var held *Thread
	if !resumed {
		held = s.next
	}
	for t := s.next; t != nil && s.beatTo(t); t = s.next {
		held = t
		t.pull()
	}
	if s.beatTo(nil) {
		return true
	}
	if held != nil && held.stop != nil {
		held.stop()
	}
	return false
}

// parked reports whether t was granted this execution and waits in its
// carrier for the baton, not exited and not wedged.
func (t *Thread) parked() bool {
	return !t.Wedged() && t.started && !t.exited
}

// unwindParked resumes every parked thread killed, so that it unwinds.
func (s *Scheduler) unwindParked() {
	for _, t := range s.threads {
		if !t.parked() {
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
// exiting without a successor. Granting a killed thread unwinds it. The
// thread must not have exited.
func (s *Scheduler) Grant(t *Thread) {
	s.call(t)
	<-s.back
}

// GrantTimeout is GrantWatched with a fixed budget d, reporting whether
// the baton came back. d <= 0 means no watchdog.
func (s *Scheduler) GrantTimeout(t *Thread, d time.Duration) bool {
	return s.GrantWatched(t, func() time.Duration { return d }) == nil
}

// GrantWatched is Grant under a wall-clock watchdog. The baton moves
// between threads without passing the engine goroutine, so the watchdog
// cannot time one thread's turn; instead every baton movement (Continue,
// and each resume by the driver) beats a counter, and a timer of
// budget() checks it: a changed count re-arms the timer with a fresh
// budget(), an unchanged one means the holder did not reach an
// instruction boundary for a whole period — checked code blocked outside
// the simulated API (a channel receive, a syscall). The holder is then
// marked wedged, abandoned and returned with the driver stuck resuming it;
// a stall is detected after more than one and at most two periods. The
// caller must end the execution and discard the scheduler: the wedged
// thread may still be running and only unwinds — without touching
// scheduler state — when it next reaches an instruction boundary, and the
// driver then ends; a thread that never does leaks both. nil
// means the baton came back. A first budget() <= 0 means no watchdog;
// later ones must be positive.
//
// The budget must be generous relative to a single simulated
// instruction's compute time: the watchdog cannot distinguish "blocked in
// user code" from "instruction still executing", and abandoning the
// latter races with subsequent executions.
func (s *Scheduler) GrantWatched(t *Thread, budget func() time.Duration) (wedged *Thread) {
	d := budget()
	if d <= 0 {
		s.Grant(t)
		return nil
	}
	seen := 1<<beatHolderBits | uint64(t.ID)
	s.beat.Store(seen)
	s.call(t)
	if s.watchdog == nil {
		s.watchdog = time.NewTimer(d)
	} else {
		s.watchdog.Reset(d)
	}
	for {
		select {
		case <-s.back:
			s.watchdog.Stop()
			s.beat.Store(0)
			return nil
		case <-s.watchdog.C:
			if s.beat.CompareAndSwap(seen, seen|beatAbandoned) {
				return s.threads[seen&beatHolder]
			}
			seen = s.beat.Load()
			s.watchdog.Reset(budget())
		}
	}
}

// Boundary marks an instruction boundary: the thread stops running its
// own code and is about to run scheduler steps. A thread that is
// unwinding from a kill — e.g. in a deferred unlock — re-panics
// immediately, so unwinding never runs scheduler steps; so does a thread
// the watchdog abandoned. It must be called from t's carrier.
func (t *Thread) Boundary() {
	if t.unwinding {
		panic(killSentinel{})
	}
	if t.Wedged() {
		t.unwind()
	}
}

// Continue keeps the baton: the scheduler step picked the calling thread
// itself. It costs no switch. It must be called from t's carrier, after
// Boundary.
func (t *Thread) Continue() {
	if !t.sch.beatTo(t) {
		t.unwind()
	}
}

// SwitchTo hands the baton to u — t yields to the driver, which resumes
// u's carrier, making it only if u's struct has none — and parks until t
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
// is left waiting for the next one (or for Close). The driver does the
// unwinding, one round trip, and only if a thread is parked. After a wedge
// the driver is stuck with the wedged thread, so the engine goroutine
// resumes the parked ones itself; the wedged one is skipped: it unwinds on
// its own at the next instruction boundary (or leaks, if it stays blocked
// in user code forever).
func (s *Scheduler) Teardown() {
	if !slices.ContainsFunc(s.threads, (*Thread).parked) {
		return
	}
	s.tearing = true
	if s.beat.Load()&beatAbandoned != 0 {
		s.unwindParked()
	} else {
		s.call(nil)
		<-s.back
	}
	s.tearing = false
}
