package core

import (
	"math/bits"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// Every test in the package runs with the scheduler's books audited at
// every step: a touch missing anywhere a thread's bits can change shows as
// an internal error in whichever test first takes that path.
func TestMain(m *testing.M) {
	stepHook = auditBooks
	os.Exit(m.Run())
}

// auditedSteps counts the steps auditBooks has checked, across checkers.
var auditedSteps atomic.Int64

// auditBooks recomputes the books the way the scheduler once did, with a
// walk over every thread per set, and raises an internal error where the
// books differ: a bit set or clear, an order (the i-th thread or buffer
// the walk finds must be the i-th bit), or a count. It allocates nothing.
func auditBooks(ck *Checker) {
	auditedSteps.Add(1)
	// The runnable walk: live, runnable threads in creation order.
	run := 0
	for _, t := range ck.threads {
		if !t.mach.failed && t.st.State() == sched.Runnable {
			if run >= int(ck.nRun) || nthBit(ck.runBits, run) != t.idx {
				internalPanic("scheduler books: runnable set differs from the walk")
			}
			run++
		}
	}
	// The committable walk: each live thread's store buffer, then its flush
	// buffer, in creation order.
	pend := 0
	for _, t := range ck.threads {
		if t.mach.failed {
			continue
		}
		for b, n := range [2]int{len(t.tb.SB), len(t.tb.FB)} {
			if n == 0 {
				continue
			}
			if pend >= int(ck.nPend) || nthBit(ck.pendBits, pend) != 2*t.idx+b {
				internalPanic("scheduler books: pending set differs from the walk")
			}
			pend++
		}
	}
	if run != int(ck.nRun) || run != onesCount(ck.runBits) {
		internalPanic("scheduler books: runnable count differs from the walk")
	}
	if pend != int(ck.nPend) || pend != onesCount(ck.pendBits) {
		internalPanic("scheduler books: pending count differs from the walk")
	}
}

func onesCount(set []uint64) int {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestBooksAllocateNothing: the audit runs at every step of every test, so
// it must not change what a step allocates.
func TestBooksAllocateNothing(t *testing.T) {
	ck := &Checker{cfg: Config{}, program: resilientClean}
	ck.cfg.fillDefaults()
	ck.resetExecution()
	defer ck.closeScheduler()
	if n := testing.AllocsPerRun(100, func() { auditBooks(ck) }); n != 0 {
		t.Fatalf("auditBooks: %v allocations per call, want 0", n)
	}
}
