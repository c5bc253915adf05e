// Package sched provides the deterministic cooperative scheduler CXLMC
// runs simulated threads on. The paper's implementation (§5) forks real
// processes and context-switches ucontext threads under a scheduler so
// every execution replays deterministically; here each simulated thread
// runs on a carrier goroutine, and exactly one goroutine — the one holding
// the baton — is ever running. The engine goroutine enters an execution
// with Grant; from then on the thread holding the baton decides at each of
// its instruction boundaries who runs next and either keeps the baton
// (Continue), hands it straight to that thread (SwitchTo, one goroutine
// switch) or, when the execution is over, returns it to the engine
// (Pause). All checker state can therefore be accessed without locks, and
// a fixed seed fixes the entire schedule (paper §3.2: only crash
// non-determinism is model checked; the thread interleaving is a
// deterministic function of the seed).
//
// The fork-and-restart of §5 is a carrier's lifecycle. A carrier belongs to
// a Thread struct, not to an execution: its thread's fn ends with the
// execution (returned, or unwound by Teardown), and the carrier parks until
// a later execution's NewThread reuses the struct and grants it, so a
// restart spawns no goroutine and grows no fresh stack. Carriers never
// outlive their scheduler's Close.
package sched

import (
	"fmt"
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
// locking is needed; the baton channels provide the happens-before edges.
type Thread struct {
	ID      int
	Machine int
	Name    string

	sch    *Scheduler
	fn     func(*Thread)
	state  State
	resume chan struct{}
	// exited is set by the carrier before it passes the baton on for the
	// last time this execution: fn is over and must never be granted again.
	exited bool
	// started marks a thread granted this execution; carried, a struct with
	// a carrier goroutine, parked on resume between executions. NewThread
	// clears the first and keeps the second.
	started bool
	carried bool
	// unwinding is set when the kill sentinel is thrown. A thread can be
	// Killed without unwinding yet: the baton carrier whose machine fails
	// during a scheduler step it runs keeps carrying, parks like any other
	// killed thread and unwinds at Teardown.
	unwinding bool
	// BlockNote describes what a blocked thread waits for (diagnostics).
	BlockNote string
}

// Wedged reports whether the watchdog abandoned the thread: its goroutine
// is stuck in user code outside the simulated API. It is the one question
// a goroutine that no longer runs in lock-step may ask of the scheduler,
// hence answered from the atomic heartbeat word alone. A wedged goroutine
// that later resumes unwinds at its next instruction boundary without
// touching scheduler state.
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
// Teardown and Reset; carriers never outlive its Close.
type Scheduler struct {
	threads []*Thread
	yield   chan *Thread
	// ended receives one value from each carrier Close ends, as it returns.
	ended chan struct{}
	// free holds Thread structs from torn-down executions — with their
	// resume channels and parked carriers — reused by NewThread so the
	// per-execution hot path neither reallocates them nor spawns goroutines.
	free []*Thread
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
	// OnExit, when set, is asked by an exiting thread's goroutine — after
	// its state is final and OnPanic has run — which thread gets the baton
	// next; nil returns it to the engine goroutine, as does an unset hook.
	// It is not consulted for threads unwound by Teardown.
	OnExit func(t *Thread) *Thread
}

// New returns an empty scheduler.
func New() *Scheduler {
	return &Scheduler{yield: make(chan *Thread), ended: make(chan struct{})}
}

// Reset prepares the scheduler for the next execution after Teardown:
// every thread struct, with its parked carrier, moves to the free list for
// reuse. It must not be called if a thread wedged this execution — the
// abandoned goroutine still holds its Thread and reads the scheduler's
// heartbeat word, so the whole scheduler must be closed and discarded
// instead.
func (s *Scheduler) Reset() {
	s.free = append(s.free, s.threads...)
	s.threads = s.threads[:0]
}

// Close ends the scheduler's life after Teardown and returns once every
// parked carrier has returned. A wedged thread's carrier is not parked: it
// ends on its own at its next instruction boundary, or never, and Close
// does not wait for it. The scheduler must not be used again.
func (s *Scheduler) Close() {
	var wedged *Thread
	if v := s.beat.Load(); v&beatAbandoned != 0 {
		wedged = s.threads[v&beatHolder]
	}
	parked := 0
	for _, ts := range [][]*Thread{s.threads, s.free} {
		for _, t := range ts {
			if t != wedged && t.carried {
				parked++
			}
			close(t.resume)
		}
	}
	for ; parked > 0; parked-- {
		<-s.ended
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
		*t = Thread{resume: t.resume, carried: t.carried}
	} else {
		t = &Thread{resume: make(chan struct{})}
	}
	t.ID = len(s.threads)
	t.Machine = machine
	t.Name = name
	t.sch = s
	t.fn = fn
	s.threads = append(s.threads, t)
	return t
}

// carry is a carrier goroutine: each grant that finds it parked here runs
// the struct's current fn, and Close ends it. The channels are passed in
// because NewThread rewrites the struct while the carrier waits.
func (t *Thread) carry(resume chan struct{}, ended chan<- struct{}) {
	for range resume {
		if !t.run() {
			return // wedged: nobody waits for it
		}
	}
	ended <- struct{}{}
}

// run runs fn once: it converts kill sentinels into clean exits, routes
// real panics to OnPanic, and always passes the baton on. It reports
// whether the carrier may park for a later execution.
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

// exit finalizes the thread's state and passes the baton on — to the
// successor OnExit names, else to the engine goroutine — unless the
// watchdog abandoned the thread, in which case it returns false without
// touching scheduler state (nobody is listening) and the carrier ends.
// An exit that is neither a return nor a panic (v nil, returned false) is
// runtime.Goexit: the goroutine ends after this deferred call, so the
// struct's claim on it is dropped before the baton moves, and its next
// grant spawns a new carrier.
func (t *Thread) exit(v any, returned bool) bool {
	if t.Wedged() {
		return false
	}
	s := t.sch
	if v == nil {
		t.state = Finished
		t.carried = returned
	} else if _, isKill := v.(killSentinel); !isKill {
		t.state = Killed
		if s.OnPanic != nil {
			s.OnPanic(t, v)
		}
	}
	t.exited = true
	if s.tearing {
		s.yield <- t
		return true
	}
	next := t.successor()
	if next == nil {
		if t.beatTo(t) {
			s.yield <- t
		}
	} else if t.beatTo(next) {
		next.wake()
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

// park blocks until the thread is granted the baton, and unwinds the
// goroutine instead of returning if the thread was killed meanwhile.
func (t *Thread) park() {
	<-t.resume
	if t.state == Killed {
		t.unwind()
	}
}

// wake passes the baton to t, spawning a carrier only for a struct that
// has none.
func (t *Thread) wake() {
	if t.exited {
		panic(fmt.Sprintf("sched: grant to exited thread %d (%s)", t.ID, t.Name))
	}
	t.started = true
	if !t.carried {
		t.carried = true
		go t.carry(t.resume, t.sch.ended)
	}
	t.resume <- struct{}{}
}

// beatTo records on the heartbeat word that the baton moves from t to
// holder (or stays, or goes back to the engine, when holder is t). It
// returns false when the watchdog abandoned t first: the engine has moved
// on and t must not touch scheduler state again.
func (t *Thread) beatTo(holder *Thread) bool {
	b := &t.sch.beat
	v := b.Load()
	if v == 0 {
		return true
	}
	next := (v>>beatHolderBits+1)<<beatHolderBits | uint64(holder.ID)
	return v&beatAbandoned == 0 && b.CompareAndSwap(v, next)
}

// Grant enters an execution: the baton goes to t, and Grant returns when
// a thread hands it back to the engine goroutine, with Pause or by
// exiting without a successor. Granting a killed thread unwinds it. The
// thread must not have exited.
func (s *Scheduler) Grant(t *Thread) {
	t.wake()
	<-s.yield
}

// GrantTimeout is GrantWatched with a fixed budget d, reporting whether
// the baton came back. d <= 0 means no watchdog.
func (s *Scheduler) GrantTimeout(t *Thread, d time.Duration) bool {
	return s.GrantWatched(t, func() time.Duration { return d }) == nil
}

// GrantWatched is Grant under a wall-clock watchdog. The baton moves
// between threads without passing the engine goroutine, so the watchdog
// cannot time one thread's turn; instead every baton movement (SwitchTo,
// Continue, Pause, a thread's exit) beats a counter, and a timer of
// budget() checks it: a changed count re-arms the timer with a fresh
// budget(), an unchanged one means the holder did not reach an
// instruction boundary for a whole period — checked code blocked outside
// the simulated API (a channel receive, a syscall). The holder is then
// marked wedged, abandoned and returned; a stall is detected after more
// than one and at most two periods. The caller must end the execution and
// discard the scheduler: the wedged goroutine may still be running and
// only unwinds — without touching scheduler state — when it next reaches
// an instruction boundary; a goroutine that never does is leaked. nil
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
	t.wake()
	if s.watchdog == nil {
		s.watchdog = time.NewTimer(d)
	} else {
		s.watchdog.Reset(d)
	}
	for {
		select {
		case <-s.yield:
			if !s.watchdog.Stop() {
				select {
				case <-s.watchdog.C:
				default:
				}
			}
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
// the watchdog abandoned. It must be called from t's goroutine.
func (t *Thread) Boundary() {
	if t.unwinding {
		panic(killSentinel{})
	}
	if t.Wedged() {
		t.unwind()
	}
}

// Continue keeps the baton: the scheduler step picked the calling thread
// itself. It costs no goroutine switch. It must be called from t's
// goroutine, after Boundary.
func (t *Thread) Continue() {
	if !t.beatTo(t) {
		t.unwind()
	}
}

// SwitchTo hands the baton directly to u — one goroutine switch, spawning
// a carrier only if u's struct has none — and parks until t is granted
// again. If t was killed while parked, SwitchTo unwinds the goroutine
// instead of returning. It must be called from t's goroutine, after
// Boundary; u must not be t and must not have exited.
func (t *Thread) SwitchTo(u *Thread) {
	if !t.beatTo(u) {
		t.unwind()
	}
	u.wake()
	t.park()
}

// Pause yields the baton back to the engine goroutine and parks until the
// next grant. If the thread was killed while parked, Pause unwinds the
// goroutine instead of returning. A thread unwinding from a kill that
// calls Pause — e.g. in a deferred unlock — re-panics immediately without
// yielding, so unwinding never escapes back to the engine. It must be
// called from t's goroutine.
func (t *Thread) Pause() {
	t.Boundary()
	if !t.beatTo(t) {
		t.unwind()
	}
	t.sch.yield <- t
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

// Kill marks the thread killed. A parked goroutine unwinds on its next
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
// t's goroutine; it does not return.
func (t *Thread) KillSelf() {
	t.state = Killed
	t.unwind()
}

// Teardown unwinds every thread that has not exited. Call it at the end of
// each execution: no thread's fn outlives its execution, and every carrier
// is left parked for the next one (or for Close). A wedged thread is
// skipped: its goroutine is not parked at the baton and unwinds on its own
// at the next instruction boundary (or leaks, if it stays blocked in user
// code forever).
func (s *Scheduler) Teardown() {
	s.tearing = true
	for _, t := range s.threads {
		if t.exited || !t.started || t.Wedged() {
			continue
		}
		t.state = Killed
		t.resume <- struct{}{}
		for <-s.yield != t {
			// A wedged thread beat the watchdog to its heartbeat, then took
			// more than a watchdog period to yield; its baton is stale —
			// ignore it.
		}
		if !t.exited {
			panic(fmt.Sprintf("sched: thread %d (%s) survived teardown", t.ID, t.Name))
		}
	}
	s.tearing = false
}
