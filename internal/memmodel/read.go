package memmodel

// This file implements the heart of the checker: post-failure read-from
// set construction (paper §4.2, Algorithm 3) and the state update applied
// once a store has been chosen (DoRead, Algorithm 4).
//
// Two implementations of the read-from set are provided:
//
//   - ScanStores/BuildMayReadFrom follow Algorithm 3 literally and
//     materialize the whole candidate set. They serve as the executable
//     specification and are used by tests.
//   - CandidateIter is the production path, implementing the paper's §4.5
//     optimization: candidates are discovered lazily, newest first, so the
//     exploration layer can turn the n-ary read-from choice into a chain
//     of binary "take it / keep searching" decision points and avoid
//     materializing sets (and per-candidate failure-set copies) on the
//     hot path.
//
// Both operate on a single byte address: per §4.4, CXLMC executes a
// multi-byte load as an atomic sequence of single-byte loads, which is
// also what makes cache-line-straddling objects (Table 3 bugs #4 and #12)
// expressible. SettledRun answers for several consecutive bytes at once
// where that sequence has nothing to decide and nothing to write: one
// source, the only candidate of each byte.

// Candidate is one possible source for a load: the ⟨val, σ, μ, Φ⟩ tuple of
// Algorithm 3. Fail is the failure set that must be in force for the load
// to read this store; it always includes the machines already failed when
// the search started.
type Candidate struct {
	Val     byte
	Seq     Seq
	Machine MachineID
	Fail    FailSet
}

// ReadContext carries the ambient state Algorithm 3 needs: the memory, the
// loading machine, the current failure set, and whether GPF mode is active
// (paper §6.2: with an always-successful global persistent flush no cached
// value is ever lost, so loads behave as in plain TSO).
type ReadContext struct {
	Mem    *Memory
	Curr   MachineID
	Failed FailSet
	GPF    bool
	// storesBuf is scratch reused by coveringStores, the Algorithm 3
	// specification path; its calls are sequential, so at most one result
	// is live at a time.
	storesBuf []Store
	// A one-entry cache: rec is the record of line ln in mem. The bytes of
	// a load share a cache line (or two), so the line is resolved on the
	// first byte and kept for the rest — and for the constraint refinement
	// that follows each. Records never move, so an entry only goes stale
	// by Mem being swapped.
	mem *Memory
	ln  LineID
	rec *lineRec
}

// line returns the record of cache line ln, resolving it through the
// memory's index only when the previous call asked for a different line.
func (rc *ReadContext) line(ln LineID) *lineRec {
	if rc.rec == nil || rc.ln != ln || rc.mem != rc.Mem {
		rc.mem, rc.ln, rc.rec = rc.Mem, ln, rc.Mem.touch(ln)
	}
	return rc.rec
}

// coveringStores returns a copy of the stores covering byte b in
// ascending Seq order. The result aliases the context's scratch buffer
// and is invalidated by the next call.
func (rc *ReadContext) coveringStores(b Addr) []Store {
	all := rc.line(LineOf(b)).stores
	out := rc.storesBuf[:0]
	for i := range all {
		if all[i].Covers(b) {
			out = append(out, all[i])
		}
	}
	rc.storesBuf = out
	return out
}

// initialCandidate is the device-resident value of byte b: an implicit
// always-persisted store at σ=0 by the memory device.
func (rc *ReadContext) initialCandidate(b Addr, phi FailSet) Candidate {
	return Candidate{Val: rc.line(LineOf(b)).img[b%LineSize], Seq: 0, Machine: DeviceID, Fail: phi}
}

// overwrites reports whether store s, on the line of record r,
// permanently overwrites all earlier stores under failure set phi: it does
// so when its machine is live (its cache holds the value, visible through
// coherence) or when it must have been persisted before its machine's
// failure (σ ≤ Begin).
func (rc *ReadContext) overwrites(r *lineRec, s *Store, phi FailSet) bool {
	if rc.GPF {
		// With GPF, failure never loses cached values: every committed
		// store is effectively persistent.
		return true
	}
	if s.Machine == DeviceID || !phi.Has(s.Machine) {
		return true
	}
	return s.Seq <= r.constraint(s.Machine).Begin
}

// mayPersist reports whether store s, on the line of record r, may be
// visible after its machine's failure under phi (Algorithm 3, line 6):
// live machines' stores always are; a failed machine's store only if it
// precedes the latest possible write-back (σ < End).
func (rc *ReadContext) mayPersist(r *lineRec, s *Store, phi FailSet) bool {
	if rc.GPF || s.Machine == DeviceID || !phi.Has(s.Machine) {
		return true
	}
	return s.Seq < r.constraint(s.Machine).End
}

// revocable reports whether store s, on the line of record r, is a live
// remote machine's store not known written back (σ > Begin): readable as it
// stands, and revoked — exposing what lies beneath it — by failing its
// machine (Algorithm 3, lines 13–16).
func (rc *ReadContext) revocable(r *lineRec, s *Store, phi FailSet) bool {
	return !rc.GPF && !phi.Has(s.Machine) && s.Machine != rc.Curr && s.Machine != DeviceID &&
		s.Seq > r.constraint(s.Machine).Begin
}

// ScanStores implements Algorithm 3's SCANSTORES(addr, Φ, σ_start)
// literally for byte b: every store with σ ≤ σ_start that may persist
// under Φ and is not permanently overwritten by a later store in the
// queue, plus the initial device value when nothing overwrites it.
func (rc *ReadContext) ScanStores(b Addr, phi FailSet, start Seq) []Candidate {
	r, stores := rc.line(LineOf(b)), rc.coveringStores(b)
	var out []Candidate
	for i := len(stores) - 1; i >= 0; i-- {
		s := &stores[i]
		if s.Seq > start {
			continue
		}
		blocked := false
		for j := i + 1; j < len(stores); j++ {
			if rc.overwrites(r, &stores[j], phi) {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		if rc.mayPersist(r, s, phi) {
			out = append(out, Candidate{Val: s.Byte(b), Seq: s.Seq, Machine: s.Machine, Fail: phi})
		}
		if rc.overwrites(r, s, phi) {
			return out
		}
	}
	// Nothing overwrites the initial contents: the device value is
	// reachable too.
	blocked := false
	for j := range stores {
		if rc.overwrites(r, &stores[j], phi) {
			blocked = true
			break
		}
	}
	if !blocked {
		out = append(out, rc.initialCandidate(b, phi))
	}
	return out
}

// BuildMayReadFrom implements Algorithm 3's BUILDMAYREADFROM for byte b,
// excluding the store-buffer bypass (lines 8–10), which the checker
// handles before consulting the cache. It returns every store the load
// may read from, each tagged with the failure set required to read it.
//
// The expansion loop injects failures: whenever the set contains a store
// from a live machine μ ≠ μ_curr that is not yet known to be written back
// (σ > Begin), failing μ could revert it and expose earlier stores, so the
// search continues below it under Φ ∪ {μ}.
func (rc *ReadContext) BuildMayReadFrom(b Addr) []Candidate {
	r := rc.ScanStores(b, rc.Failed, rc.Mem.Seq())
	if rc.GPF {
		return r
	}
	phi := rc.Failed
	for {
		expanded := false
		for i := range r {
			c := &r[i]
			if c.Machine == DeviceID || c.Machine == rc.Curr || phi.Has(c.Machine) {
				continue
			}
			if c.Seq > rc.line(LineOf(b)).constraint(c.Machine).Begin {
				phi = phi.With(c.Machine)
				r = append(r, rc.ScanStores(b, phi, c.Seq-1)...)
				expanded = true
				break
			}
		}
		if !expanded {
			return r
		}
	}
}

// CandidateIter lazily enumerates the same candidates as BuildMayReadFrom,
// newest first (§4.5). Next returns candidates one at a time; advancing
// past a live remote machine's un-written-back store implicitly adds that
// machine to the tentative failure set, exactly like the expansion loop.
type CandidateIter struct {
	rc *ReadContext
	b  Addr
	// rec is b's line; stores is its store log itself, ascending, not a
	// copy: the walk skips the stores that do not cover b. Nothing commits
	// to the log while a load is choosing its candidate.
	rec    *lineRec
	stores []Store
	idx    int // next index to examine (descending walk)
	phi    FailSet
	// pending holds the lookahead candidate; ok is false once exhausted.
	pending   Candidate
	ok        bool
	exhausted bool
}

// Candidates starts a lazy newest-first enumeration of the read-from set
// for byte b.
func (rc *ReadContext) Candidates(b Addr) *CandidateIter {
	it := &CandidateIter{}
	rc.CandidatesInto(it, b)
	return it
}

// CandidatesInto (re)initializes it in place for byte b, so a caller can
// reuse one iterator across loads instead of allocating per byte.
func (rc *ReadContext) CandidatesInto(it *CandidateIter, b Addr) {
	it.rc = rc
	it.b = b
	it.rec = rc.line(LineOf(b))
	it.stores = it.rec.stores
	it.idx = len(it.stores) - 1
	it.phi = rc.Failed
	it.exhausted = false
	it.advance()
}

// SettledRun resolves the n bytes at b, which must share a cache line, as
// one run when a single source settles them: the longest prefix [b, b+k)
// whose every byte has that source as its only read-from candidate. The
// source is the newest store of the line covering b — the run cut short at
// the first byte a still newer store covers — provided it may persist, is
// not revocable and overwrites everything beneath it; or the device image
// when no store overlaps the bytes left. For each such byte CandidatesInto
// yields that one candidate, and ApplyReadConstraint on it changes nothing:
// no newer store covers the byte and Begin already stands at or above σ. So
// val is the per-byte sequence's value, little-endian, with no decision to
// place and no state to write; seq is the source's σ (0: the device). k is 0
// when b's newest covering store does not settle it: the byte needs the
// candidate search.
func (rc *ReadContext) SettledRun(b Addr, n int) (val uint64, k int, seq Seq) {
	r := rc.line(LineOf(b))
	end := b + Addr(n)
	for i := len(r.stores) - 1; i >= 0; i-- {
		s := &r.stores[i]
		var covers bool
		if val, end, covers = s.run(b, end); !covers {
			continue
		}
		phi := rc.Failed
		if !rc.mayPersist(r, s, phi) || rc.revocable(r, s, phi) || !rc.overwrites(r, s, phi) {
			return 0, 0, 0
		}
		return val, int(end - b), s.Seq
	}
	k = int(end - b)
	for i := k - 1; i >= 0; i-- {
		val = val<<8 | uint64(r.img[(b+Addr(i))%LineSize])
	}
	return val, k, 0
}

// advance computes the next candidate into it.pending.
func (it *CandidateIter) advance() {
	it.ok = false
	if it.exhausted {
		return
	}
	rc := it.rc
	for it.idx >= 0 {
		s := &it.stores[it.idx]
		it.idx--
		if !s.Covers(it.b) {
			continue
		}
		if !rc.mayPersist(it.rec, s, it.phi) {
			continue // definitely lost (σ ≥ End): skip, keep searching
		}
		if rc.revocable(it.rec, s, it.phi) {
			// Live remote store not known written back: readable as-is
			// now; continuing past it means failing its machine
			// (Algorithm 3, lines 13–16).
			it.pending = Candidate{Val: s.Byte(it.b), Seq: s.Seq, Machine: s.Machine, Fail: it.phi}
			it.ok = true
			it.phi = it.phi.With(s.Machine)
			return
		}
		if rc.overwrites(it.rec, s, it.phi) {
			// Terminal candidate: permanently overwrites everything
			// earlier, so the search ends after it.
			it.exhausted = true
		}
		it.pending = Candidate{Val: s.Byte(it.b), Seq: s.Seq, Machine: s.Machine, Fail: it.phi}
		it.ok = true
		return
	}
	// Bottom of the queue: the device's initial contents.
	it.pending = rc.initialCandidate(it.b, it.phi)
	it.ok = true
	it.exhausted = true
}

// Next returns the next candidate; ok is false when the enumeration is
// complete.
func (it *CandidateIter) Next() (c Candidate, ok bool) {
	if !it.ok {
		return Candidate{}, false
	}
	c = it.pending
	it.advance()
	return c, true
}

// HasMore reports whether at least one more candidate remains. A load must
// take the final candidate unconditionally, so the exploration layer only
// places a decision point while HasMore is true.
func (it *CandidateIter) HasMore() bool { return it.ok }

// ApplyReadConstraint performs the constraint refinement of Algorithm 4
// (DoRead) after the checker has injected the failures the candidate
// requires. failedNow reports whether the candidate's machine is failed at
// this point.
//
//   - Reading a failed machine's store locks the line's last write-back
//     into [σ, σ_next): the chosen store persisted, the next store to the
//     same address did not happen before the write-back.
//   - Reading a live remote machine's store forces the line to be written
//     back (CXL coherence), raising the writer's Begin to σ.
//   - Reading the current machine's own store, or device-resident data,
//     refines nothing about the chosen store itself (a local load does
//     not force a write-back, §3.3).
//
// In every case, any store to the same byte *after* the chosen one whose
// machine has already failed is now known lost — a failed cache can never
// write back again — so that machine's End drops below it. This is a
// slight strengthening of Algorithm 4 (which lowers End only for the
// immediately-next store): it is what guarantees the paper's §3.3
// consecutive-load consistency when the queue interleaves several
// machines, or when the chosen value is the device-resident one.
func (rc *ReadContext) ApplyReadConstraint(b Addr, c Candidate, failedNow bool) {
	if rc.GPF {
		return
	}
	m, r := rc.Mem, rc.line(LineOf(b))
	// Only stores newer than the chosen one matter, and they are at the
	// tail of the log: walk back from the newest and stop at σ.
	for i := len(r.stores) - 1; i >= 0; i-- {
		s := &r.stores[i]
		if s.Seq <= c.Seq {
			break
		}
		if s.Covers(b) && rc.Failed.Has(s.Machine) {
			m.lowerEnd(r, s.Machine, s.Seq)
		}
	}
	if c.Machine == DeviceID {
		return
	}
	if failedNow {
		// Algorithm 4, lines 7–10: lock the write-back into [σ, σ_next).
		// The next store (from any machine) bounds the write-back because
		// coherence serializes it before a later owner's store.
		m.raiseBegin(r, c.Machine, c.Seq)
		if next, ok := m.NextStoreAfter(b, c.Seq); ok {
			m.lowerEnd(r, c.Machine, next)
		}
		return
	}
	if c.Machine != rc.Curr {
		m.raiseBegin(r, c.Machine, c.Seq)
	}
}
