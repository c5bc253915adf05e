package core

import (
	"fmt"
	"slices"

	"repro/internal/memmodel"
)

// This file implements the tier-2 dynamic happens-before race detector
// (Config.RaceDetect): FastTrack-style vector clocks maintained in the
// checker hot path. Threads carry a vector clock; mutexes carry the
// release clock of their last owner; Join/JoinThreads merge the joined
// threads' clocks. Two plain accesses to overlapping bytes, at least one
// a write, issued by different threads with neither ordered before the
// other, are reported as BugDataRace.
//
// Approximations (all deliberate, all documented at their site):
//   - Access history is kept per 8-byte word. Per thread and word one
//     read epoch and one write epoch survive, each covering the union of
//     the byte ranges that thread touched — disjoint-byte accesses to the
//     same word can therefore produce a false positive, which matches how
//     the benchmarks lay out fields (word-sized).
//   - Locked RMW words (CAS/swap/fetch-add targets) are treated as C11
//     atomics: each RMW acquires and releases a per-word synchronization
//     clock and leaves no plain-access epochs, so CAS-built locks do not
//     self-report. Mixing plain stores and RMWs on one word is not
//     flagged.
//   - Fences order memory, not threads: they create no inter-thread
//     happens-before edge and the detector ignores them.

// vclock is a vector clock indexed by thread creation index.
type vclock []uint32

// joinVC merges o into vc pointwise (vc must already be full length).
func (vc vclock) joinVC(o vclock) {
	for i, c := range o {
		if c > vc[i] {
			vc[i] = c
		}
	}
}

// raceEpoch is one thread's last plain access of a kind to a word: the
// thread's clock at the access and the union of touched bytes [lo,hi].
type raceEpoch struct {
	tid    int32
	clk    uint32
	lo, hi uint8
}

// raceWord is the access history of one 8-byte word. reads and writes
// hold at most one epoch per thread (linear scan; thread counts are
// single digits). sync is the word's synchronization clock when it has
// been the target of a locked RMW.
type raceWord struct {
	reads  []raceEpoch
	writes []raceEpoch
	sync   vclock
	isSync bool
	// key is the word's position in raceDetector.words, so begin can
	// unlink the words an execution touched without sweeping the table.
	key int32
}

// raceDetector holds all detector state. It is in the Checker's scratch,
// kept across executions and Runs and reset per execution; when RaceDetect is off, `on` stays false and every
// hot-path hook is a single branch with zero allocations.
type raceDetector struct {
	on bool
	// tvc[i] is thread i's vector clock; mvc[i] is mutex i's release clock.
	tvc []vclock
	mvc []vclock
	// words links a word to its entry in the pooled slab, plus one (0: no
	// history this execution). A word's position is its line's slot in
	// the memory model (Memory.Slot) times the words per line plus its
	// index in the line, so the table is as long as the touched set, not
	// the region.
	words []int32
	slab  []raceWord
}

// wordsPerLine is how many 8-byte race-history words a cache line holds.
const wordsPerLine = memmodel.LineSize / 8

// begin resets the detector for a fresh execution after program setup has
// created all threads and mutexes. All storage is reused across
// executions.
func (rd *raceDetector) begin(nthreads, nmutexes int) {
	rd.on = true
	rd.tvc = growVCs(rd.tvc, nthreads, nthreads)
	for i := range rd.tvc {
		// Clocks start at 1 so a zero epoch never orders before anything.
		rd.tvc[i][i] = 1
	}
	rd.mvc = growVCs(rd.mvc, nmutexes, nthreads)
	for i := range rd.slab {
		rd.words[rd.slab[i].key] = 0
	}
	rd.slab = rd.slab[:0]
}

// growVCs resizes vcs to n clocks of width wide, zeroing reused storage.
func growVCs(vcs []vclock, n, wide int) []vclock {
	if cap(vcs) < n {
		vcs = append(vcs[:cap(vcs)], make([]vclock, n-cap(vcs))...)
	}
	vcs = vcs[:n]
	for i := range vcs {
		if cap(vcs[i]) < wide {
			vcs[i] = make(vclock, wide)
			continue
		}
		vcs[i] = vcs[i][:wide]
		for j := range vcs[i] {
			vcs[i][j] = 0
		}
	}
	return vcs
}

// wordFor returns the (pooled) history entry for word index w (Addr>>3).
func (ck *Checker) wordFor(w Addr) *raceWord {
	rd := &ck.race
	key := ck.mem.Slot(memmodel.LineID(w/wordsPerLine))*wordsPerLine + int32(w%wordsPerLine)
	for len(rd.words) <= int(key) {
		rd.words = append(rd.words, 0)
	}
	if i := rd.words[key]; i != 0 {
		return &rd.slab[i-1]
	}
	if len(rd.slab) < cap(rd.slab) {
		rd.slab = rd.slab[:len(rd.slab)+1]
		rw := &rd.slab[len(rd.slab)-1]
		rw.reads = rw.reads[:0]
		rw.writes = rw.writes[:0]
		rw.isSync = false
	} else {
		rd.slab = append(rd.slab, raceWord{})
	}
	rd.words[key] = int32(len(rd.slab))
	rw := &rd.slab[len(rd.slab)-1]
	rw.key = key
	return rw
}

// recordEpoch updates thread tid's epoch in eps with an access to [lo,hi]
// at clock clk, widening the byte range and advancing the clock.
func recordEpoch(eps []raceEpoch, tid int32, clk uint32, lo, hi uint8) []raceEpoch {
	for i := range eps {
		if eps[i].tid == tid {
			if lo < eps[i].lo {
				eps[i].lo = lo
			}
			if hi > eps[i].hi {
				eps[i].hi = hi
			}
			eps[i].clk = clk
			return eps
		}
	}
	return append(eps, raceEpoch{tid: tid, clk: clk, lo: lo, hi: hi})
}

// conflict reports the first epoch in eps that overlaps [lo,hi], belongs
// to another thread, and is not ordered before t's current clock.
func (rd *raceDetector) conflict(eps []raceEpoch, tid int32, vc vclock, lo, hi uint8) *raceEpoch {
	for i := range eps {
		e := &eps[i]
		if e.tid != tid && e.lo <= hi && lo <= e.hi && e.clk > vc[e.tid] {
			return e
		}
	}
	return nil
}

// raceRead checks and records a plain load of [a, a+size). Called in
// thread context; a detected race reports a bug and unwinds the thread.
func (ck *Checker) raceRead(t *Thread, a Addr, size uint8) {
	end := a + Addr(size) - 1
	for w := a >> 3; w <= end>>3; w++ {
		lo, hi := wordBytes(w, a, end)
		ck.raceReadWord(t, a, size, w, lo, hi)
	}
}

// raceReadWord is raceRead on word w, whose bytes [lo,hi] the load touches.
func (ck *Checker) raceReadWord(t *Thread, a Addr, size uint8, w Addr, lo, hi uint8) {
	rw := ck.wordFor(w)
	if rw.isSync {
		return
	}
	rd := &ck.race
	tid, vc := int32(t.idx), rd.tvc[t.idx]
	if e := rd.conflict(rw.writes, tid, vc, lo, hi); e != nil {
		ck.reportRace(t, "load", a, size, "store", e, w)
		return
	}
	rw.reads = recordEpoch(rw.reads, tid, vc[tid], lo, hi)
}

// raceWrite checks and records a plain store of [a, a+size).
func (ck *Checker) raceWrite(t *Thread, a Addr, size uint8) {
	end := a + Addr(size) - 1
	for w := a >> 3; w <= end>>3; w++ {
		lo, hi := wordBytes(w, a, end)
		ck.raceWriteWord(t, a, size, w, lo, hi)
	}
}

// raceWriteWord is raceWrite on word w, whose bytes [lo,hi] the store
// touches.
func (ck *Checker) raceWriteWord(t *Thread, a Addr, size uint8, w Addr, lo, hi uint8) {
	rw := ck.wordFor(w)
	if rw.isSync {
		return
	}
	rd := &ck.race
	tid, vc := int32(t.idx), rd.tvc[t.idx]
	if e := rd.conflict(rw.writes, tid, vc, lo, hi); e != nil {
		ck.reportRace(t, "store", a, size, "store", e, w)
		return
	}
	if e := rd.conflict(rw.reads, tid, vc, lo, hi); e != nil {
		ck.reportRace(t, "store", a, size, "load", e, w)
		return
	}
	rw.writes = recordEpoch(rw.writes, tid, vc[tid], lo, hi)
}

// wordBytes returns the bytes [lo,hi] of word w that the access [a, end]
// touches. An access is at most 8 bytes, so it touches one word or two.
func wordBytes(w, a, end Addr) (lo, hi uint8) {
	lo, hi = 0, 7
	if w == a>>3 {
		lo = uint8(a & 7)
	}
	if w == end>>3 {
		hi = uint8(end & 7)
	}
	return lo, hi
}

// raceRMW treats a locked RMW on the word at a as a synchronization
// operation: acquire the word's sync clock, release the thread's clock
// into it. The word is marked atomic; plain epochs recorded before the
// first RMW are dropped (mixed plain/atomic use is out of scope).
func (ck *Checker) raceRMW(t *Thread, a Addr) {
	rd := &ck.race
	rw := ck.wordFor(a >> 3)
	vc := rd.tvc[t.idx]
	if !rw.isSync {
		rw.isSync = true
		rw.reads = rw.reads[:0]
		rw.writes = rw.writes[:0]
		// The pooled sync clock may hold a previous execution's values.
		if cap(rw.sync) < len(vc) {
			rw.sync = make(vclock, len(vc))
		} else {
			rw.sync = rw.sync[:len(vc)]
			for i := range rw.sync {
				rw.sync[i] = 0
			}
		}
	}
	vc.joinVC(rw.sync)
	rw.sync.joinVC(vc)
	vc[t.idx]++
}

// raceAcquire merges a mutex's release clock into the acquiring thread.
func (ck *Checker) raceAcquire(t *Thread, mu *Mutex) {
	ck.race.tvc[t.idx].joinVC(ck.race.mvc[mu.idx])
}

// raceRelease publishes owner's clock into the mutex's release clock.
// owner may be a dead thread (forceRelease after a machine failure): the
// next acquirer observed the failure through the lock, so the dead
// owner's writes are ordered before it.
func (ck *Checker) raceRelease(owner *Thread, mu *Mutex) {
	rd := &ck.race
	rd.mvc[mu.idx].joinVC(rd.tvc[owner.idx])
	rd.tvc[owner.idx][owner.idx]++
}

// raceJoinThread orders everything target did before t's continuation.
// Called when a Join/JoinThreads observes target finished or failed.
func (ck *Checker) raceJoinThread(t *Thread, target *Thread) {
	ck.race.tvc[t.idx].joinVC(ck.race.tvc[target.idx])
}

// reportRace reports a data race between t's current access and a prior
// epoch. The message is deterministic (thread names, absolute byte
// ranges) so dedup agrees across workers and dist nodes.
func (ck *Checker) reportRace(t *Thread, kind string, a Addr, size uint8, prevKind string, e *raceEpoch, w Addr) {
	prev := ck.threads[e.tid]
	base := w << 3
	ck.stats.RaceReports++
	ck.reportBugHere(BugDataRace, fmt.Sprintf(
		"data race: %s of [%#x,%#x) by %s/%s is unordered with %s of [%#x,%#x) by %s/%s",
		kind, a, a+Addr(size), t.mach.name, t.name,
		prevKind, base+Addr(e.lo), base+Addr(e.hi)+1, prev.mach.name, prev.name))
}

// raceCheckExposed implements the dynamic half of the unflushed-publish
// lint: byte b is being read post-crash and resolved to candidate c. If
// b's line was flagged by the static pass (Config.UnflushedLines, sorted
// by fillDefaults) and a failed machine issued a newer store covering b
// that the crash lost, the hazard is real — the line was published while
// dirty and the crash exposed it.
func (ck *Checker) raceCheckExposed(t *Thread, b Addr, c memmodel.Candidate) {
	ln := memmodel.LineOf(b)
	if _, flagged := slices.BinarySearch(ck.cfg.UnflushedLines, uint64(ln)); !flagged {
		return
	}
	stores := ck.mem.StoresOn(ln)
	for i := len(stores) - 1; i >= 0; i-- {
		s := &stores[i]
		if s.Seq <= c.Seq {
			break
		}
		if s.Covers(b) {
			if !ck.failed.Has(s.Machine) {
				return
			}
			ck.stats.RaceReports++
			ck.reportBugHere(BugUnflushedPublish, fmt.Sprintf(
				"unflushed publish exposed by crash: %s/%s reads σ%d at %#x on flagged line %d, losing unflushed store σ%d by failed machine %s",
				t.mach.name, t.name, c.Seq, b, ln, s.Seq, ck.machines[s.Machine].name))
			return
		}
	}
}
