package core

import (
	"fmt"
	"io"

	"repro/internal/memmodel"
)

// This file defines the op stream: the one record of what an execution did. A
// Config.Observer receives one OpEvent per simulated instruction of interest
// at issue time, in program issue order, and one per effect — a store reaching
// the cache, a writeback, a load's result, a machine failing, a bug — where it
// takes hold. The cxlvet pre-pass (internal/analyze) reads the issue-time
// kinds, TraceTo renders the kinds that have a line of the text trace, and
// Replay keeps the last of those for Bug.Trace. Observation never changes
// exploration semantics — the Observer is excluded from the configuration
// digest — but it forces Workers to 1 so the stream is a single deterministic
// sequence.

// OpKind labels one observed operation.
type OpKind uint8

// Observed operation kinds: the issue-time kinds first, then the effects.
const (
	// OpLoad is a plain load (RMW-internal loads are not reported).
	OpLoad OpKind = iota
	// OpStore is a plain buffered store of Val.
	OpStore
	// OpFlush is a clflush/clflushopt/clwb issue on a cache line.
	OpFlush
	// OpSFence is an sfence issue.
	OpSFence
	// OpMFence is an mfence taking effect (including the fence halves of
	// locked RMW instructions and the release drain inside Mutex.Unlock).
	OpMFence
	// OpRMW is a locked read-modify-write instruction (CAS, swap,
	// fetch-add) on a word.
	OpRMW
	// OpMutexLock is a Mutex acquisition completing.
	OpMutexLock
	// OpMutexUnlock is a Mutex release (after its release drain).
	OpMutexUnlock
	// OpFailurePoint is a failure-injection decision point being created
	// at a constraint-narrowing flush commit.
	OpFailurePoint
	// OpDeadFailurePoint is a failure-injection site the reduction pass
	// proved observer-free and skipped: a failure branch no surviving
	// thread could ever observe. Recipe authors see these as "crash here
	// is untestable" diagnostics.
	OpDeadFailurePoint

	// OpCommit is a store reaching the cache as σ Ref: Cause says whether it
	// drained from the store buffer (OpStore) or a locked RMW wrote it (OpRMW).
	OpCommit
	// OpWriteback is a flush taking effect: Line's constraint Begin rises to
	// Ref. Opt tells a clflushopt/clwb leaving the flush buffer from a clflush.
	OpWriteback
	// OpLoaded is a load's result, Val: a plain load's, or that of the load
	// inside the locked RMW whose OpRMW precedes it.
	OpLoaded
	// OpFail is machine Failed failing. Cause OpFlush: injected instead of the
	// issuing thread's flush of Line. Cause OpLoad: required for the issuing
	// thread to read σ Ref at Addr.
	OpFail
	// OpBug is a distinct bug being reported; the issuing thread is absent when
	// the scheduler found it.
	OpBug
)

var opKindNames = [...]string{
	OpLoad: "load", OpStore: "store", OpFlush: "flush", OpSFence: "sfence", OpMFence: "mfence",
	OpRMW: "rmw", OpMutexLock: "mutex-lock", OpMutexUnlock: "mutex-unlock",
	OpFailurePoint: "failure-point", OpDeadFailurePoint: "dead-failure-point",
	OpCommit: "commit", OpWriteback: "writeback", OpLoaded: "loaded", OpFail: "fail", OpBug: "bug",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "unknown"
}

// Effect reports whether k records something taking hold rather than an
// instruction being issued.
func (k OpKind) Effect() bool { return k >= OpCommit }

// traced reports whether events of kind k have a line in the text trace.
func (k OpKind) traced() bool { return k == OpStore || k.Effect() }

// OpEvent is one observed operation, attributed to the issuing thread.
type OpEvent struct {
	Kind OpKind
	// Cause and Opt tell apart the flavours of an effect; see its kind.
	Cause OpKind
	Opt   bool
	// Size, with Addr, describes the accessed range (loads, stores, RMW).
	Size uint8
	// Machine/Thread identify the issuing thread: the machine's ID and
	// name, and the thread's creation index and name.
	Machine     MachineID
	MachineName string
	Thread      int
	ThreadName  string
	// Failed is the machine an OpFail fails.
	Failed     MachineID
	FailedName string
	// Step is the scheduler step the event was observed at, and Seq the
	// global sequence number σ then.
	Step int
	Seq  memmodel.Seq
	Addr Addr
	// Val is the value stored or loaded.
	Val uint64
	// Line is the affected cache line (flush, writeback, failure and
	// failure-point events).
	Line memmodel.LineID
	// Ref is the σ an effect concerns: the store committed, the Begin a
	// writeback set, the store a failure let its reader see.
	Ref memmodel.Seq
	// Mutex is the mutex's creation index and name (mutex events).
	Mutex     int
	MutexName string
	// Bug is the bug an OpBug reports, before its token is minimized.
	Bug *Bug
}

// TraceLine renders the event as its line of the text trace, stamped with σ;
// kinds that have no line render as "".
func (ev OpEvent) TraceLine() string {
	if !ev.Kind.traced() {
		return ""
	}
	by := ev.MachineName + "/" + ev.ThreadName
	var s string
	switch ev.Kind {
	case OpStore:
		s = fmt.Sprintf("exec store [%#x]×%d=%d by %s", ev.Addr, ev.Size, ev.Val, by)
	case OpCommit:
		verb := "commit"
		if ev.Cause == OpRMW {
			verb = "rmw"
		}
		s = fmt.Sprintf("%s store [%#x]=%d (σ%d) by %s", verb, ev.Addr, ev.Val, ev.Ref, by)
	case OpWriteback:
		insn := "clflush"
		if ev.Opt {
			insn = "clflushopt"
		}
		s = fmt.Sprintf("commit %s line %d → begin %d by %s", insn, ev.Line, ev.Ref, by)
	case OpLoaded:
		s = fmt.Sprintf("load [%#x]×%d = %d by %s", ev.Addr, ev.Size, ev.Val, by)
	case OpFail:
		if ev.Cause == OpFlush {
			s = fmt.Sprintf("FAIL machine %s: injected instead of flush of line %d", ev.FailedName, ev.Line)
		} else {
			s = fmt.Sprintf("FAIL machine %s: required for %s to read σ%d at %#x", ev.FailedName, by, ev.Ref, ev.Addr)
		}
	case OpBug:
		s = "BUG " + ev.Bug.String()
	}
	return fmt.Sprintf("σ%-6d %s", ev.Seq, s)
}

// OpObserver receives the op stream of an instrumented run. Calls arrive
// from the single exploration worker, in order; implementations must not
// call back into the run.
type OpObserver interface {
	Op(OpEvent)
}

// TraceTo returns the observer that writes the text trace to w, a line per
// event that has one.
func TraceTo(w io.Writer) OpObserver { return traceWriter{w} }

type traceWriter struct{ w io.Writer }

func (t traceWriter) Op(ev OpEvent) {
	if line := ev.TraceLine(); line != "" {
		fmt.Fprintln(t.w, line)
	}
}

// lastOps is the observer Replay installs: it passes the stream on to the
// caller's observer, if any, and keeps the last traceDepth events that have a
// trace line — the bug report aside, which closes the account — for Bug.Trace.
type lastOps struct {
	next OpObserver
	ring [traceDepth]OpEvent
	n    int
}

func (r *lastOps) Op(ev OpEvent) {
	if r.next != nil {
		r.next.Op(ev)
	}
	if ev.Kind.traced() && ev.Kind != OpBug {
		r.ring[r.n%traceDepth] = ev
		r.n++
	}
}

// lines renders the kept events, oldest first.
func (r *lastOps) lines() []string {
	var out []string
	for i := max(0, r.n-traceDepth); i < r.n; i++ {
		out = append(out, r.ring[i%traceDepth].TraceLine())
	}
	return out
}

// observeOp forwards one event to the configured observer, stamping the
// step, σ and thread identity. Call sites guard with ck.observing so the
// disabled path is a single bool check and builds no event.
func (ck *Checker) observeOp(t *Thread, ev OpEvent) {
	ev.Step, ev.Seq = ck.stepNo, ck.mem.Seq()
	if t != nil {
		ev.Machine = t.mach.id
		ev.MachineName = t.mach.name
		ev.Thread = t.idx
		ev.ThreadName = t.name
	}
	ck.cfg.Observer.Op(ev)
}
