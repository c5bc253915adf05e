package core

import (
	"fmt"
	"math/bits"

	"repro/internal/decision"
	"repro/internal/memmodel"
	"repro/internal/sched"
)

// This file contains the checker-side memory machinery: committing buffer
// heads (with failure injection per Algorithm 5, line 16), and the load
// path (lazy read-from search per §4.5, DoRead per Algorithm 4, optional
// memory poisoning per the §4.2 side note).

// commitSBHead commits the head of t's store buffer. It may run in
// scheduler context (spontaneous drain) or in thread context (mfence).
func (ck *Checker) commitSBHead(t *Thread) {
	h := t.tb.Head()
	if h == nil {
		return
	}
	switch h.Kind {
	case memmodel.SBStore:
		st := ck.mem.CommitStore(t.tb, t.mach.id)
		if ck.observing {
			ck.observeOp(t, OpEvent{Kind: OpCommit, Cause: OpStore, Addr: st.Addr, Size: st.Size, Val: st.Val, Ref: st.Seq})
		}
	case memmodel.SBClflush:
		eff := ck.mem.PreviewClflush(t.tb, t.mach.id)
		if ck.maybeInjectFailure(t, eff) {
			return
		}
		eff = ck.mem.CommitClflush(t.tb, t.mach.id)
		if ck.observing {
			ck.observeOp(t, OpEvent{Kind: OpWriteback, Line: eff.Line, Ref: eff.NewBegin})
		}
	case memmodel.SBClflushopt:
		ck.mem.CommitClflushopt(t.tb)
	case memmodel.SBSfence:
		ck.mem.CommitSfence(t.tb)
		ck.drainFB(t)
	}
}

// commitFBHead lets the head of t's flush buffer take effect, with
// failure injection.
func (ck *Checker) commitFBHead(t *Thread) {
	eff := ck.mem.PreviewFB(t.tb, t.mach.id)
	if ck.maybeInjectFailure(t, eff) {
		return
	}
	eff = ck.mem.CommitFB(t.tb, t.mach.id)
	if ck.observing {
		ck.observeOp(t, OpEvent{Kind: OpWriteback, Opt: true, Line: eff.Line, Ref: eff.NewBegin})
	}
}

// drainFB empties t's flush buffer (sfence/mfence semantics). If a
// failure is injected mid-drain in scheduler context the machine's
// buffers are already discarded and the loop ends. The whole drain runs
// inside one scheduler step, which is what makes the flush-chain
// subsumption window sound (see pruneFailurePoint); the deferred reset
// also covers the failure branch unwinding the current thread mid-drain.
func (ck *Checker) drainFB(t *Thread) {
	ck.fbChain = true
	defer func() { ck.fbChain = false; ck.fbChainDecided = false }()
	for len(t.tb.FB) > 0 && !t.mach.failed {
		ck.commitFBHead(t)
	}
}

// maybeInjectFailure implements the failure-injection policy of
// Algorithm 5 line 16: when a flush would raise a cache-line constraint
// Begin past a store from a live machine — reducing the set of possible
// post-failure load results — the checker explores both committing the
// flush and failing the machine instead. With reduction on, decision
// points whose failure branch provably cannot change the bug set are
// skipped before being created. Returns true when the flush must not be
// applied (machine failed). If t is the currently running thread, the
// failure branch unwinds it and does not return.
func (ck *Checker) maybeInjectFailure(t *Thread, eff memmodel.FlushEffect) bool {
	if t.mach.failed {
		return true
	}
	if !ck.mem.CrossesLiveStore(eff) {
		return false
	}
	if ck.reduce && ck.pruneFailurePoint(t) {
		ck.stats.Pruned++
		// Report only observer-free prunes to the op-stream observer:
		// those are the author-actionable "a crash here is untestable"
		// sites. Flush-chain subsumption (the first condition inside
		// pruneFailurePoint) is a mechanical dedup within one drain.
		if ck.observing && !(ck.fbChainDecided && !ck.cfg.Poison) {
			ck.observeOp(t, OpEvent{Kind: OpDeadFailurePoint, Line: eff.Line})
		}
		return false
	}
	if ck.observing {
		ck.observeOp(t, OpEvent{Kind: OpFailurePoint, Line: eff.Line})
	}
	if ck.choose(decision.KindFailure, 2) == 1 {
		ck.failMachine(t.mach, t, OpEvent{Cause: OpFlush, Line: eff.Line})
		return true
	}
	ck.fbChainDecided = ck.fbChain
	return false
}

// pruneFailurePoint reports whether the failure-injection point at t's
// pending flush can be skipped without changing the explored bug set
// (Config.Reduction). Both rules are conservative, and both are
// recomputed deterministically wherever a recorded path re-executes
// (each execution of a unit from set-up, split units, token replay,
// minimization), so a pruned site never consumes a decision node anywhere.
func (ck *Checker) pruneFailurePoint(t *Thread) bool {
	// Flush-chain subsumption: within one synchronous flush-buffer drain
	// (sfence/mfence), only the first constraint-narrowing writeback
	// keeps its failure point. The drain runs inside a single scheduler
	// step — no thread and no other commit can observe memory between
	// its writebacks — and each writeback only raises its own line's
	// constraint Begin, so the post-failure read results reachable by
	// failing before entry k are a superset of those from failing before
	// entry k+1: every bug in a later branch is found in the first one.
	// Poison mode samples constraint windows at load time with per-line
	// decision points of its own, so it conservatively keeps every point.
	if ck.fbChainDecided && !ck.cfg.Poison {
		return true
	}
	// Observer-free failure: when every thread outside t's machine has
	// finished or belongs to an already-failed machine, the failure
	// branch kills every live thread that still had code to run. No
	// load, assertion, poison check or blocking operation can execute
	// in it — finished threads on live machines only have buffered
	// stores left to drain, and commits alone observe nothing — so the
	// branch cannot report a bug...
	m := t.mach
	for _, o := range ck.threads {
		if o.mach != m && !o.mach.failed && o.st.State() != sched.Finished {
			return false
		}
	}
	// ...provided it cannot hit a budget diagnosis either. Its remaining
	// work is bounded by the currently-buffered entries of live machines
	// (each at most one commit step and one decision point), so require
	// headroom under both budgets before pruning.
	buffered := 0
	for _, o := range ck.threads {
		if !o.mach.failed {
			buffered += o.tb.Buffered()
		}
	}
	if ck.cfg.MaxEventsPerExec > 0 && ck.tree.Depth()+buffered+2 > ck.cfg.MaxEventsPerExec {
		return false
	}
	if ck.stepNo+buffered+8 > ck.cfg.maxSteps {
		return false
	}
	return true
}

// execMFence implements mfence (and the fence halves of locked RMW
// instructions): every buffered instruction of the thread takes effect
// immediately, in order. Runs in thread context; an injected failure of
// the thread's own machine unwinds it.
func (ck *Checker) execMFence(t *Thread) {
	for len(t.tb.SB) > 0 {
		ck.commitSBHead(t)
	}
	ck.drainFB(t)
	// Observed after the drains: an injected failure unwinds the thread
	// above, and a fence that never completed must not appear in the
	// op stream.
	if ck.observing {
		ck.observeOp(t, OpEvent{Kind: OpMFence})
	}
}

// load performs a size-byte load at a for thread t. Per §4.4 it is an
// atomic sequence of single-byte loads, each resolved through local bypass
// or the lazy read-from search (§4.5); the loop takes those bytes a run at a
// time — the longest prefix of the bytes left that one source settles, which
// is state for state the byte sequence (see cacheRun). Values are
// little-endian.
func (ck *Checker) load(t *Thread, a Addr, size uint8) uint64 {
	ck.checkRange(a, uint64(size))
	if ck.race.on && !ck.inRMW {
		ck.raceRead(t, a, size)
	}
	if ck.observing && !ck.inRMW {
		ck.observeOp(t, OpEvent{Kind: OpLoad, Addr: a, Size: size})
	}
	// The read context is pooled on the checker (the cache line it
	// resolved last carries over between runs and loads); only one load is
	// ever in flight because threads run in lock-step.
	rc := &ck.readCtx
	rc.Mem = ck.mem
	rc.Curr = t.mach.id
	rc.Failed = ck.failed
	rc.GPF = ck.cfg.GPF
	var val uint64
	for i, n := 0, int(size); i < n; {
		b := a + Addr(i)
		v, k, buffered := t.tb.BypassRun(b, n-i)
		if !buffered {
			// No buffered store covers these k: to the cache, a line at a time.
			v, k = ck.cacheRun(t, rc, b, min(k, memmodel.LineSize-int(b%memmodel.LineSize)))
		}
		val |= v << (8 * i)
		i += k
	}
	if ck.observing {
		ck.observeOp(t, OpEvent{Kind: OpLoaded, Addr: a, Size: size, Val: val})
	}
	return val
}

// cacheRun resolves a prefix of the span bytes at b — bytes of one load that
// share a cache line and that no buffered store covers — and returns its
// value and length. Where one source settles the prefix (memmodel.SettledRun)
// each byte would have found that one candidate, placed no decision point,
// required no failure, refined no constraint and exposed no unflushed
// publish: taken together they leave tree and memory model where the bytes
// taken singly would (DESIGN.md, "Runs"). Poison asks its question of every
// byte, so it forms no such runs. Any other byte is a run of one, resolved as
// §4.5 says, and the bytes after it are tried as a run again.
func (ck *Checker) cacheRun(t *Thread, rc *memmodel.ReadContext, b Addr, span int) (uint64, int) {
	if ck.cfg.Poison {
		ck.poisonCheck(t, b)
	} else if v, k := rc.SettledRun(b, span); k > 0 {
		return v, k
	}
	c := ck.chooseCandidate(rc, b)
	for need := uint64(c.Fail.Diff(ck.failed)); need != 0; need &= need - 1 {
		ck.failMachine(ck.machines[bits.TrailingZeros64(need)], t, OpEvent{Cause: OpLoad, Addr: b, Ref: c.Seq})
	}
	rc.Failed = ck.failed
	rc.ApplyReadConstraint(b, c, ck.failed.Has(c.Machine))
	if len(ck.cfg.UnflushedLines) > 0 {
		ck.raceCheckExposed(t, b, c)
	}
	return uint64(c.Val), 1
}

// chooseCandidate walks the lazy candidate enumeration newest-first,
// placing one binary decision point per non-final candidate: take it, or
// keep searching (§4.5). The final candidate is forced.
//
// With Config.eagerReadSet the full Algorithm 3 set is materialized
// instead and the choice is one n-ary decision point — the
// pre-optimization behaviour, kept as the tests' reference.
func (ck *Checker) chooseCandidate(rc *memmodel.ReadContext, b Addr) memmodel.Candidate {
	if ck.cfg.eagerReadSet {
		r := rc.BuildMayReadFrom(b)
		if len(r) == 0 {
			internalPanic("empty read-from set")
		}
		if len(r) == 1 {
			return r[0]
		}
		return r[ck.choose(decision.KindReadFrom, len(r))]
	}
	it := &ck.readIter
	rc.CandidatesInto(it, b)
	c, ok := it.Next()
	if !ok {
		internalPanic("empty read-from set")
	}
	for it.HasMore() {
		if ck.choose(decision.KindReadFrom, 2) == 0 {
			return c
		}
		c, _ = it.Next()
	}
	return c
}

// poisonCheck implements the memory-poisoning option (§4.2 side note):
// before byte b is read from the cache, decide whether its line is
// poisoned because the latest store to the line, by a failed machine, was
// lost. Reading a poisoned line raises a runtime exception, which ends the
// execution: no later load can meet the line again, so nothing remembers
// which lines are poisoned.
func (ck *Checker) poisonCheck(t *Thread, b Addr) {
	ln := memmodel.LineOf(b)
	stores := ck.mem.StoresOn(ln)
	if len(stores) == 0 {
		return
	}
	s := stores[len(stores)-1]
	if !ck.failed.Has(s.Machine) {
		return
	}
	c := ck.mem.Constraint(s.Machine, ln)
	switch {
	case s.Seq >= c.End:
		// The last store was definitely lost: the line must be poisoned.
		ck.reportBugHere(BugPoison, fmt.Sprintf("read of poisoned cache line %d at %#x (store σ%d lost)", ln, b, s.Seq))
	case s.Seq > c.Begin:
		// In doubt: branch on whether the write-back covered it.
		if ck.choose(decision.KindPoison, 2) == 1 {
			ck.mem.LowerEnd(s.Machine, ln, s.Seq)
			ck.reportBugHere(BugPoison, fmt.Sprintf("read of poisoned cache line %d at %#x (store σ%d chosen lost)", ln, b, s.Seq))
		} else {
			ck.mem.RaiseBegin(s.Machine, ln, s.Seq)
		}
	}
}

// store enqueues a size-byte store at a into t's store buffer, splitting
// at cache-line boundaries: an x86 store crossing a line boundary is not
// atomic, and each piece reaches — and persists from — its own line
// independently. This is what makes misaligned-object bugs (Table 3 #4
// and #12) observable.
func (ck *Checker) store(t *Thread, a Addr, size uint8, val uint64) {
	ck.checkRange(a, uint64(size))
	if ck.race.on {
		ck.raceWrite(t, a, size)
	}
	if ck.observing {
		ck.observeOp(t, OpEvent{Kind: OpStore, Addr: a, Size: size, Val: val})
	}
	for size > 0 {
		lineEnd := memmodel.LineBase(memmodel.LineOf(a)) + memmodel.LineSize
		chunk := size
		if rem := uint64(lineEnd - a); uint64(chunk) > rem {
			chunk = uint8(rem)
		}
		mask := ^uint64(0)
		if chunk < 8 {
			mask = (1 << (8 * uint64(chunk))) - 1
		}
		t.tb.ExecStore(a, chunk, val&mask)
		a += Addr(chunk)
		if chunk < 8 {
			val >>= 8 * uint64(chunk)
		}
		size -= chunk
	}
}

// rmw implements x86 locked read-modify-write instructions (§4.4): the
// atomic sequence mfence; load; store; mfence. fn maps the loaded value
// to (newValue, doStore).
func (ck *Checker) rmw(t *Thread, a Addr, size uint8, fn func(cur uint64) (uint64, bool)) uint64 {
	ck.checkRange(a, uint64(size))
	if uint64(a)%uint64(size) != 0 {
		panic(fmt.Sprintf("cxlmc: misaligned atomic at %#x size %d", a, size))
	}
	if ck.race.on || ck.observing {
		if ck.race.on {
			ck.raceRMW(t, a)
		}
		if ck.observing {
			ck.observeOp(t, OpEvent{Kind: OpRMW, Addr: a, Size: size})
		}
		// The internal load below is half of one atomic instruction, not
		// a plain access; the deferred reset also covers an injected
		// failure or a reported bug unwinding the thread mid-RMW.
		ck.inRMW = true
		defer func() { ck.inRMW = false }()
	}
	ck.execMFence(t)
	cur := ck.load(t, a, size)
	if nv, doStore := fn(cur); doStore {
		st := ck.mem.CommitDirectStore(t.tb, t.mach.id, a, size, nv)
		if ck.observing {
			ck.observeOp(t, OpEvent{Kind: OpCommit, Cause: OpRMW, Addr: a, Size: size, Val: nv, Ref: st.Seq})
		}
	}
	ck.execMFence(t)
	return cur
}
