package core

// Mutex is the failure-aware mutex of the paper's runtime (§5): the
// checker intercepts pthread-style mutexes so that (a) a mutex held by a
// thread whose machine fails is released automatically — the assumption
// the RECIPE authors make — and (b) the next acquirer can ask whether the
// previous release was forced by a failure, so recovery code can run
// (the mechanism behind the Table 3 bug #22 fix).
//
// The mutex is checker-level coordination: acquiring it is not a
// simulated shared-memory access (benchmarks that implement locks in CXL
// memory, like P-ART's versioned locks, do so with CAS on Thread).
type Mutex struct {
	ck                *Checker
	name              string
	blockNote         string // "mutex "+name, what a blocked waiter shows in a deadlock report
	idx               int    // creation index: position in ck.mutexes
	owner             *Thread
	releasedByFailure bool
	waiters           []*Thread
}

// Name returns the mutex's name.
func (mu *Mutex) Name() string { return mu.name }

// Lock acquires the mutex, blocking while another live thread holds it.
// It returns true when the mutex was last released because its owner's
// machine failed (rather than by a normal Unlock) — the signal that the
// protected data may be mid-update and need recovery.
func (mu *Mutex) Lock(t *Thread) (ownerFailed bool) {
	t.enter()
	for mu.owner != nil {
		mu.waiters = append(mu.waiters, t)
		t.block(mu.blockNote)
	}
	mu.owner = t
	ck := t.ck
	if ck.race.on {
		ck.raceAcquire(t, mu)
	}
	if ck.observing {
		ck.observeOp(t, OpEvent{Kind: OpMutexLock, Mutex: mu.idx, MutexName: mu.name})
	}
	return mu.releasedByFailure
}

// TryLock acquires the mutex if free, returning (acquired, ownerFailed).
func (mu *Mutex) TryLock(t *Thread) (acquired, ownerFailed bool) {
	t.enter()
	if mu.owner != nil {
		return false, false
	}
	mu.owner = t
	ck := t.ck
	if ck.race.on {
		ck.raceAcquire(t, mu)
	}
	if ck.observing {
		ck.observeOp(t, OpEvent{Kind: OpMutexLock, Mutex: mu.idx, MutexName: mu.name})
	}
	return true, mu.releasedByFailure
}

// Unlock releases the mutex. Unlocking a mutex the calling thread does
// not own is reported as a bug. A normal release clears the
// released-by-failure flag: the owner is assumed to have completed any
// recovery before unlocking.
//
// Unlock drains the owner's store and flush buffers first: on real x86 a
// pthread unlock is a store that drains in program order after the
// critical section's stores, and the next owner's locked acquire cannot
// observe the lock free before those stores are globally visible. The
// drain reproduces that release/acquire ordering for the checker-level
// mutex (and, like any drain, is a failure-injection site when it
// commits flushes).
func (mu *Mutex) Unlock(t *Thread) {
	t.enter()
	if mu.owner != t {
		t.ck.reportBugHere(BugAssertion, "unlock of mutex "+mu.name+" by non-owner")
		return
	}
	t.ck.execMFence(t)
	ck := t.ck
	if ck.race.on {
		ck.raceRelease(t, mu)
	}
	if ck.observing {
		ck.observeOp(t, OpEvent{Kind: OpMutexUnlock, Mutex: mu.idx, MutexName: mu.name})
	}
	mu.owner = nil
	mu.releasedByFailure = false
	mu.wakeAll()
}

// OwnerFailed reports whether the mutex's last release was forced by a
// machine failure. Meaningful to the current owner deciding whether to
// run recovery.
func (mu *Mutex) OwnerFailed() bool { return mu.releasedByFailure }

// forceRelease releases the mutex because its owner's machine failed.
// The dead owner's clock is still published into the mutex: the next
// acquirer learned of the failure through the lock, so the owner's
// pre-failure writes are ordered before whatever recovery it runs.
func (mu *Mutex) forceRelease() {
	if mu.ck.race.on {
		mu.ck.raceRelease(mu.owner, mu)
	}
	mu.owner = nil
	mu.releasedByFailure = true
	mu.wakeAll()
}

func (mu *Mutex) wakeAll() {
	for _, w := range mu.waiters {
		w.st.Wake()
		mu.ck.touch(w)
	}
	mu.waiters = mu.waiters[:0]
}
