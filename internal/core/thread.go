package core

import (
	"fmt"
	"slices"

	"repro/internal/memmodel"
	"repro/internal/sched"
)

// Thread is a simulated thread's handle into the checker: all of the
// checked program's memory accesses, fences, flushes and synchronization
// go through it. Every method must be called from the thread's own
// function; the checker schedules threads in strict lock-step, so methods
// are the points where the scheduler may interleave other threads or
// commit buffered stores.
type Thread struct {
	ck   *Checker
	mach *Machine
	name string
	idx  int // creation index: position in ck.threads
	st   *sched.Thread
	tb   *memmodel.ThreadBuf
	// fn is the program's body for the thread this execution; run, made
	// once per struct, is what the scheduler calls to run it.
	fn  func(*Thread)
	run func(*sched.Thread)
}

// enter marks an instruction boundary; every simulated instruction starts
// here. The thread holds the baton, so it runs the scheduler steps itself:
// buffer commits happen inline, and the step that grants a thread either
// picks t again (no switch), picks another thread (t's carrier coroutine
// yields to the goroutine that called Grant, which resumes the other's, and
// t stays parked until it is granted again), or finds the execution over (the
// baton goes back to the engine goroutine and t parks until teardown
// unwinds it). A thread unwinding from a kill unwinds inside Boundary
// instead. The books are brought up to date first: t's own last
// instruction, or a block that just marked it blocked, changed its bits.
func (t *Thread) enter() {
	t.st.Boundary()
	t.ck.touch(t)
	switch next := t.ck.advance(); next {
	case t:
		// t keeps the baton.
	case nil:
		t.st.Pause()
	default:
		t.st.SwitchTo(next.st)
	}
}

// block marks the thread blocked on note and gives the baton away; the
// caller re-checks its condition when block returns.
func (t *Thread) block(note string) {
	t.st.SetBlocked(note)
	t.enter()
}

// Name returns the thread's name.
func (t *Thread) Name() string { return t.name }

// Machine returns the machine the thread runs on.
func (t *Thread) Machine() *Machine { return t.mach }

// Load8 loads one byte.
func (t *Thread) Load8(a Addr) uint8 { t.enter(); return uint8(t.ck.load(t, a, 1)) }

// Load16 loads a 16-bit little-endian value.
func (t *Thread) Load16(a Addr) uint16 { t.enter(); return uint16(t.ck.load(t, a, 2)) }

// Load32 loads a 32-bit little-endian value.
func (t *Thread) Load32(a Addr) uint32 { t.enter(); return uint32(t.ck.load(t, a, 4)) }

// Load64 loads a 64-bit little-endian value.
func (t *Thread) Load64(a Addr) uint64 { t.enter(); return t.ck.load(t, a, 8) }

// Store8 stores one byte (buffered per TSO).
func (t *Thread) Store8(a Addr, v uint8) { t.enter(); t.ck.store(t, a, 1, uint64(v)) }

// Store16 stores a 16-bit value (buffered per TSO).
func (t *Thread) Store16(a Addr, v uint16) { t.enter(); t.ck.store(t, a, 2, uint64(v)) }

// Store32 stores a 32-bit value (buffered per TSO).
func (t *Thread) Store32(a Addr, v uint32) { t.enter(); t.ck.store(t, a, 4, uint64(v)) }

// Store64 stores a 64-bit value (buffered per TSO).
func (t *Thread) Store64(a Addr, v uint64) { t.enter(); t.ck.store(t, a, 8, v) }

// CLFlush executes clflush on the cache line containing a: strongly
// ordered, writes the line back to the CXL device.
func (t *Thread) CLFlush(a Addr) {
	t.enter()
	t.ck.checkRange(a, 1)
	t.tb.ExecClflush(a)
	if t.ck.observing {
		t.ck.observeOp(t, OpEvent{Kind: OpFlush, Addr: a, Line: memmodel.LineOf(a)})
	}
}

// CLFlushOpt executes clflushopt on the cache line containing a: weakly
// ordered (may reorder with later stores and flushes to other lines; use
// SFence to serialize).
func (t *Thread) CLFlushOpt(a Addr) {
	t.enter()
	t.ck.checkRange(a, 1)
	t.tb.ExecClflushopt(a, t.ck.mem.Seq())
	if t.ck.observing {
		t.ck.observeOp(t, OpEvent{Kind: OpFlush, Addr: a, Line: memmodel.LineOf(a)})
	}
}

// CLWB executes clwb, which CXLMC treats identically to clflushopt
// (paper §2.2: their ordering constraints are the same; only cache
// residency differs, which the model does not track).
func (t *Thread) CLWB(a Addr) { t.CLFlushOpt(a) }

// SFence executes sfence: orders earlier stores and clflushopt against
// later ones.
func (t *Thread) SFence() {
	t.enter()
	t.tb.ExecSfence()
	if t.ck.observing {
		t.ck.observeOp(t, OpEvent{Kind: OpSFence})
	}
}

// MFence executes mfence: all buffered stores and flushes of this thread
// take effect immediately.
func (t *Thread) MFence() {
	t.enter()
	t.ck.execMFence(t)
}

// CAS64 executes a locked compare-and-swap on a 64-bit value, returning
// the previous value and whether the swap happened. Like all x86 locked
// RMW instructions it has full fence semantics (§4.4).
func (t *Thread) CAS64(a Addr, old, new uint64) (prev uint64, swapped bool) {
	t.enter()
	prev = t.ck.rmw(t, a, 8, func(cur uint64) (uint64, bool) { return new, cur == old })
	return prev, prev == old
}

// CAS32 executes a locked compare-and-swap on a 32-bit value.
func (t *Thread) CAS32(a Addr, old, new uint32) (prev uint32, swapped bool) {
	t.enter()
	p := t.ck.rmw(t, a, 4, func(cur uint64) (uint64, bool) { return uint64(new), uint32(cur) == old })
	return uint32(p), uint32(p) == old
}

// Swap64 executes a locked exchange on a 64-bit value.
func (t *Thread) Swap64(a Addr, v uint64) (prev uint64) {
	t.enter()
	return t.ck.rmw(t, a, 8, func(uint64) (uint64, bool) { return v, true })
}

// FetchAdd64 executes a locked fetch-and-add on a 64-bit value, returning
// the previous value.
func (t *Thread) FetchAdd64(a Addr, delta uint64) (prev uint64) {
	t.enter()
	return t.ck.rmw(t, a, 8, func(cur uint64) (uint64, bool) { return cur + delta, true })
}

// FetchAdd32 executes a locked fetch-and-add on a 32-bit value.
func (t *Thread) FetchAdd32(a Addr, delta uint32) (prev uint32) {
	t.enter()
	return uint32(t.ck.rmw(t, a, 4, func(cur uint64) (uint64, bool) {
		return uint64(uint32(cur) + delta), true
	}))
}

// Alloc carves size bytes (8-byte aligned) out of the shared region
// during execution. The allocator itself is deterministic host-side
// metadata; its crash consistency is not part of the checked program
// (benchmarks that check allocator recovery, like CXL-SHM, keep their
// metadata in simulated memory explicitly).
func (t *Thread) Alloc(size uint64) Addr { return t.ck.alloc(size, 8) }

// AllocAligned is Alloc with explicit power-of-two alignment.
func (t *Thread) AllocAligned(size, align uint64) Addr { return t.ck.alloc(size, align) }

// Assert reports a bug and halts the execution when cond is false — the
// analogue of an assert() in an instrumented C program. Its arguments are
// boxed at the call even when cond holds, so a check that runs every
// execution with non-constant arguments is written if !cond { t.Fail(…) }.
func (t *Thread) Assert(cond bool, format string, args ...any) {
	if cond {
		return
	}
	t.ck.reportBugHere(BugAssertion, fmt.Sprintf(format, args...))
}

// Fail reports a bug unconditionally and halts the execution.
func (t *Thread) Fail(format string, args ...any) {
	t.ck.reportBugHere(BugAssertion, fmt.Sprintf(format, args...))
}

// Join blocks until machine m has failed or all of its threads have
// finished, returning true if it failed. It models the cluster's failure
// detector (e.g. a heartbeat timeout), which CXL software uses to trigger
// recovery; it is checker-level coordination, not a shared-memory access.
func (t *Thread) Join(m *Machine) (failedMachine bool) {
	t.enter()
	for {
		if m.failed {
			t.raceJoinMachine(m)
			return true
		}
		if m.quiesced() {
			t.raceJoinMachine(m)
			return false
		}
		m.joiners = append(m.joiners, t)
		t.block(m.joinNote)
	}
}

// raceJoinMachine orders everything m's threads did before t continues:
// a returned Join is the failure detector / termination observation the
// program synchronizes on. A failed machine's threads count too —
// whatever they did before the failure happened before the detector
// reported it.
func (t *Thread) raceJoinMachine(m *Machine) {
	if !t.ck.race.on {
		return
	}
	for _, tgt := range m.threads {
		t.ck.raceJoinThread(t, tgt)
	}
}

// JoinThreads blocks until every listed thread has either quiesced
// (finished with drained buffers) or lost its machine to a failure. Use
// it when observer threads exist on several machines: mutual machine-level
// Joins would deadlock, thread-level joins form no cycle.
func (t *Thread) JoinThreads(targets ...*Thread) {
	t.enter()
	for {
		pending := false
		for _, tgt := range targets {
			if !tgt.mach.failed && !tgt.quiesced() {
				pending = true
				break
			}
		}
		if !pending {
			if t.ck.race.on {
				for _, tgt := range targets {
					t.ck.raceJoinThread(t, tgt)
				}
			}
			return
		}
		// Register with every involved machine not already waking t;
		// joiner lists are cleared on each wake, so re-registration per
		// round is correct.
		for _, tgt := range targets {
			if !slices.Contains(tgt.mach.joiners, t) {
				tgt.mach.joiners = append(tgt.mach.joiners, t)
			}
		}
		t.block("join-threads")
	}
}

// Yield cedes the processor without simulating an instruction.
func (t *Thread) Yield() { t.enter() }
