package memmodel

// Memory is the simulated CXL shared-memory device plus the coherent cache
// abstraction of the model: the global store queue (one log per cache
// line, scanned per byte), the per-machine cache-line constraints, and the
// global sequence counter σ_curr.
//
// Everything the model knows about one cache line lives in one lineRec —
// its store log, its constraint row (one Constraint per machine) and its
// device-resident initial image. A line gets a record the first time it is
// touched and keeps it, and its dense slot number, for the life of the
// Memory. Records are reached through index, one int32 per cache line of
// the region: the region is a bump allocator starting at address 0, so the
// table is as long as the allocator's high-water mark and a lookup is a
// slice index, never a hash. Reserve, called by the checker after program
// set-up with the allocator's mark and the region size, sizes the index
// once and bounds it; without a bound (tests, probes) it grows on demand
// by doubling. A 16 MiB region costs 1 MiB of index however sparsely it is
// used; the records cost only what is touched.
//
// Reset walks the dirty list — the records written since the last Reset —
// so an execution pays for what it touched, not for what is reserved, and
// keeps every record, slot and slice allocated for the next one.
//
// Memory knows nothing about threads or scheduling; the checker drives it
// through the Exec* methods on ThreadBuf and the Commit* methods here
// (Algorithms 1 and 2 of the paper).
type Memory struct {
	seq Seq
	// index maps a LineID to its slot number plus one; 0 means the line
	// has no record yet.
	index []int32
	// limit is the greatest length index may grow to (0: unbounded).
	limit int
	// recs maps a slot number to its record. Records are carved out of
	// chunk, a block at a time, and never move: a *lineRec stays valid for
	// the life of the Memory.
	recs  []*lineRec
	chunk []lineRec
	// dirty lists the records that hold anything Reset must clear.
	dirty []*lineRec
}

// lineRec is everything the model knows about one cache line.
type lineRec struct {
	// stores is the line's store log, ordered by Seq ascending.
	stores []Store
	// cons is the constraint row, indexed by MachineID; machines past its
	// length have the default [0, ∞). It starts out aliasing consBuf, so a
	// row of up to four machines costs no allocation of its own.
	cons    []Constraint
	consBuf [4]Constraint
	// img holds the device-resident initial contents (attributed to
	// DeviceID at σ=0, always persisted).
	img [LineSize]byte
	// dirty: the record is on the memory's dirty list.
	dirty bool
}

// recChunk is how many line records one allocation carves.
const recChunk = 32

// NewMemory returns an empty memory with σ_curr = 0 and all-zero contents.
// Its line index is unbounded and grows on demand; see Reserve.
func NewMemory() *Memory { return &Memory{} }

// Reserve sizes the line index to cover addresses [0, used) at once and
// forbids it to ever cover more than [0, limit): the checker passes the
// bump allocator's high-water mark and the region size, having
// range-checked every address it hands the model. Touching a line at or
// past limit is a caller bug and panics instead of sizing a table from
// the address.
func (m *Memory) Reserve(used, limit Addr) {
	m.limit = linesIn(limit)
	if n := linesIn(used); n > len(m.index) {
		m.growIndex(n)
	}
}

// linesIn returns how many cache lines the addresses [0, end) span.
func linesIn(end Addr) int {
	if end == 0 {
		return 0
	}
	return int(LineOf(end-1)) + 1
}

// growIndex reallocates the index at n entries, clamped to the limit.
func (m *Memory) growIndex(n int) {
	if m.limit > 0 && n > m.limit {
		n = m.limit
	}
	idx := make([]int32, n)
	copy(idx, m.index)
	m.index = idx
}

// slotOf returns the slot of line ln, or -1 when it has no record.
func (m *Memory) slotOf(ln LineID) int32 {
	if ln < LineID(len(m.index)) {
		return m.index[ln] - 1
	}
	return -1
}

// Slot returns the dense slot number of cache line ln, giving the line a
// record (and the next free slot) if it has none. Slots count up from 0 in
// first-touch order and survive Reset, so side tables about touched lines
// — t_{τ,line}, the race detector's words — index by slot and stay as
// small as the touched set.
func (m *Memory) Slot(ln LineID) int32 {
	if s := m.slotOf(ln); s >= 0 {
		return s
	}
	if ln >= LineID(len(m.index)) {
		if m.limit > 0 && ln >= LineID(m.limit) {
			panic("memmodel: cache line beyond the reserved region")
		}
		n := max(2*len(m.index), 64)
		for LineID(n) <= ln {
			n *= 2
		}
		m.growIndex(n)
	}
	if len(m.chunk) == 0 {
		m.chunk = make([]lineRec, recChunk)
	}
	r := &m.chunk[0]
	m.chunk = m.chunk[1:]
	r.cons = r.consBuf[:0]
	m.recs = append(m.recs, r)
	m.index[ln] = int32(len(m.recs))
	return int32(len(m.recs) - 1)
}

// rec returns the record of line ln, or nil when it was never touched.
func (m *Memory) rec(ln LineID) *lineRec {
	if s := m.slotOf(ln); s >= 0 {
		return m.recs[s]
	}
	return nil
}

// touch returns the record of line ln, creating it if needed.
func (m *Memory) touch(ln LineID) *lineRec { return m.recs[m.Slot(ln)] }

// mark puts r on the dirty list; every write to a record goes through it.
func (m *Memory) mark(r *lineRec) {
	if !r.dirty {
		r.dirty = true
		m.dirty = append(m.dirty, r)
	}
}

// Reset returns the memory to the all-zero initial state. It clears the
// records written since the last Reset and nothing else; records, slots,
// store logs and constraint rows stay allocated, so the per-execution hot
// path of the checker pays no allocations for memory it already touched in
// an earlier execution.
func (m *Memory) Reset() {
	m.seq = 0
	for _, r := range m.dirty {
		r.stores = r.stores[:0]
		r.cons = r.cons[:0]
		r.img = [LineSize]byte{}
		r.dirty = false
	}
	m.dirty = m.dirty[:0]
}

// Seq returns σ_curr, the timestamp of the most recent instruction that
// took effect on the cache.
func (m *Memory) Seq() Seq { return m.seq }

// nextSeq increments and returns σ_curr.
func (m *Memory) nextSeq() Seq {
	m.seq++
	return m.seq
}

// InitWrite sets initial memory contents: size bytes of val at address a,
// recorded as device-persisted data at σ=0. It must only be used before
// the checked execution starts (typically from program setup code).
func (m *Memory) InitWrite(a Addr, size uint8, val uint64) {
	for i := Addr(0); i < Addr(size); i++ {
		b := a + i
		r := m.touch(LineOf(b))
		m.mark(r)
		r.img[b%LineSize] = byte(val >> (8 * i))
	}
}

// constraint returns mach's constraint for the record's line.
func (r *lineRec) constraint(mach MachineID) Constraint {
	if uint(mach) < uint(len(r.cons)) {
		return r.cons[mach]
	}
	return DefaultConstraint
}

// con returns mach's entry of r's constraint row for writing, extending
// the row with defaults up to it.
func (m *Memory) con(r *lineRec, mach MachineID) *Constraint {
	for len(r.cons) <= int(mach) {
		r.cons = append(r.cons, DefaultConstraint)
	}
	m.mark(r)
	return &r.cons[mach]
}

// raiseBegin is RaiseBegin on a resolved record.
func (m *Memory) raiseBegin(r *lineRec, mach MachineID, s Seq) (old, now Constraint) {
	old = r.constraint(mach)
	now = old
	if s > now.Begin {
		now.Begin = s
		*m.con(r, mach) = now
	}
	return old, now
}

// lowerEnd is LowerEnd on a resolved record.
func (m *Memory) lowerEnd(r *lineRec, mach MachineID, s Seq) {
	if c := r.constraint(mach); s < c.End {
		c.End = s
		*m.con(r, mach) = c
	}
}

// Constraint returns machine mach's constraint for cache line ln
// (default [0, ∞) when never refined).
func (m *Memory) Constraint(mach MachineID, ln LineID) Constraint {
	if r := m.rec(ln); r != nil {
		return r.constraint(mach)
	}
	return DefaultConstraint
}

// RaiseBegin raises the lower bound of mach's constraint for line ln to at
// least s, returning the previous and new constraint.
func (m *Memory) RaiseBegin(mach MachineID, ln LineID, s Seq) (old, now Constraint) {
	return m.raiseBegin(m.touch(ln), mach, s)
}

// LowerEnd lowers the upper bound of mach's constraint for line ln to at
// most s.
func (m *Memory) LowerEnd(mach MachineID, ln LineID, s Seq) {
	m.lowerEnd(m.touch(ln), mach, s)
}

// PersistAll snaps every constraint of machine mach to "fully persisted as
// of now": Begin = σ_curr on every line the machine has touched. This
// implements GPF mode's always-successful global persistent flush at
// failure time (paper §6.2).
func (m *Memory) PersistAll(mach MachineID) {
	// Every line with a store is on the dirty list, and raising its
	// constraint marks a record that is already there: the list does not
	// grow under the loop.
	for _, r := range m.dirty {
		for i := range r.stores {
			if r.stores[i].Machine == mach {
				m.raiseBegin(r, mach, m.seq)
				break
			}
		}
	}
	// Lines flushed before (constraint entries without stores) need no
	// update: raising Begin further has no observable effect without
	// stores from mach above the old Begin.
}

// StoresOn returns the store log of cache line ln, ordered by Seq
// ascending. The returned slice must not be modified.
func (m *Memory) StoresOn(ln LineID) []Store {
	if r := m.rec(ln); r != nil {
		return r.stores
	}
	return nil
}

// HasStoreBy reports whether machine mach has a store to line ln with
// sequence number in (lo, hi]. The failure-injection policy (Algorithm 5,
// line 16) uses this to decide whether a flush crossing the interval
// reduces future post-failure load results.
func (m *Memory) HasStoreBy(mach MachineID, ln LineID, lo, hi Seq) bool {
	stores := m.StoresOn(ln)
	for i := len(stores) - 1; i >= 0; i-- {
		s := &stores[i]
		if s.Seq <= lo {
			break
		}
		if s.Seq <= hi && s.Machine == mach {
			return true
		}
	}
	return false
}

// NextStoreAfter returns the sequence number of the first store covering
// byte b with Seq > after, and whether one exists (used by Algorithm 4 to
// lower the End of a failed machine's constraint). It walks back from the
// newest store and stops at σ ≤ after: the stores a load asks about are
// the newest ones.
func (m *Memory) NextStoreAfter(b Addr, after Seq) (next Seq, ok bool) {
	stores := m.StoresOn(LineOf(b))
	for i := len(stores) - 1; i >= 0; i-- {
		s := &stores[i]
		if s.Seq <= after {
			break
		}
		if s.Covers(b) {
			next, ok = s.Seq, true
		}
	}
	return next, ok
}

// FlushEffect describes the constraint update a flush commit would apply
// (or has applied): machine mach's constraint Begin for line Line moving
// from OldBegin to NewBegin.
type FlushEffect struct {
	Machine  MachineID
	Line     LineID
	OldBegin Seq
	NewBegin Seq
}

// CrossesLiveStore reports whether applying the effect would move the
// constraint Begin past at least one store from machine mach — i.e.
// whether it is a failure-injection point per Algorithm 5 line 16 (the
// caller checks that mach is live).
func (m *Memory) CrossesLiveStore(eff FlushEffect) bool {
	if eff.NewBegin <= eff.OldBegin {
		return false
	}
	return m.HasStoreBy(eff.Machine, eff.Line, eff.OldBegin, eff.NewBegin)
}

// CommitStore commits the store at the head of tb's store buffer
// (Algorithm 2, Commit_SB(store)): assigns σ, appends the store to the
// cache's store queue, and updates t_{τ,line}. It returns the committed
// store. The head of tb.SB must be an SBStore.
func (m *Memory) CommitStore(tb *ThreadBuf, mach MachineID) Store {
	e := tb.popSB()
	if e.Kind != SBStore {
		panic("memmodel: CommitStore on non-store head")
	}
	st := e.St
	st.Seq = m.nextSeq()
	st.Machine = mach
	m.appendStore(tb, st)
	return st
}

// appendStore appends a sequenced store to its line's log and updates
// the committing thread's t_{τ,line}.
func (m *Memory) appendStore(tb *ThreadBuf, st Store) {
	slot := m.Slot(LineOf(st.Addr))
	r := m.recs[slot]
	m.mark(r)
	r.stores = append(r.stores, st)
	tb.lineOp(slot, st.Seq)
}

// PreviewClflush returns the constraint effect committing the clflush at
// the head of tb.SB would have, without applying it or consuming the
// entry. σ_curr is not advanced; the previewed NewBegin is the value the
// commit would assign (σ_curr + 1).
func (m *Memory) PreviewClflush(tb *ThreadBuf, mach MachineID) FlushEffect {
	e := tb.Head()
	if e == nil || e.Kind != SBClflush {
		panic("memmodel: PreviewClflush on non-clflush head")
	}
	ln := LineOf(e.Addr)
	return FlushEffect{
		Machine:  mach,
		Line:     ln,
		OldBegin: m.Constraint(mach, ln).Begin,
		NewBegin: m.seq + 1,
	}
}

// CommitClflush commits the clflush at the head of tb.SB (Algorithm 2,
// Commit_SB(clflush)): assigns σ, raises the flusher's constraint Begin
// for the line to σ, and updates t_{τ,line}.
func (m *Memory) CommitClflush(tb *ThreadBuf, mach MachineID) FlushEffect {
	e := tb.popSB()
	if e.Kind != SBClflush {
		panic("memmodel: CommitClflush on non-clflush head")
	}
	ln := LineOf(e.Addr)
	s := m.nextSeq()
	slot := m.Slot(ln)
	old, now := m.raiseBegin(m.recs[slot], mach, s)
	tb.lineOp(slot, s)
	return FlushEffect{Machine: mach, Line: ln, OldBegin: old.Begin, NewBegin: now.Begin}
}

// CommitClflushopt moves the clflushopt at the head of tb.SB into the
// flush buffer F_τ (Algorithm 2, Commit_SB(clflushopt)). Its effective
// flush timestamp is the max of (1) σ_curr when it executed, (2) the last
// store/clflush the thread committed to the same line, and (3) the
// thread's last sfence — the earliest point it could take effect after
// reordering with earlier instructions.
func (m *Memory) CommitClflushopt(tb *ThreadBuf) {
	e := tb.popSB()
	if e.Kind != SBClflushopt {
		panic("memmodel: CommitClflushopt on non-clflushopt head")
	}
	eff := e.ExecSeq
	if t := tb.lastLineOp(m.slotOf(LineOf(e.Addr))); t > eff {
		eff = t
	}
	if tb.TSfence > eff {
		eff = tb.TSfence
	}
	tb.pushFB(FBEntry{Addr: e.Addr, EffSeq: eff})
}

// CommitSfence commits the sfence at the head of tb.SB (Algorithm 2,
// Commit_SB(sfence)): assigns σ and updates t_τ. It does NOT drain F_τ
// itself — the checker drains F_τ entry by entry via PreviewFB/CommitFB so
// that each clflushopt taking effect is a separate failure-injection
// opportunity. The caller must drain F_τ to empty immediately after.
func (m *Memory) CommitSfence(tb *ThreadBuf) {
	e := tb.popSB()
	if e.Kind != SBSfence {
		panic("memmodel: CommitSfence on non-sfence head")
	}
	tb.TSfence = m.nextSeq()
}

// PreviewFB returns the constraint effect of the flush-buffer head taking
// effect, without consuming it.
func (m *Memory) PreviewFB(tb *ThreadBuf, mach MachineID) FlushEffect {
	if len(tb.FB) == 0 {
		panic("memmodel: PreviewFB on empty flush buffer")
	}
	e := tb.FB[0]
	ln := LineOf(e.Addr)
	return FlushEffect{
		Machine:  mach,
		Line:     ln,
		OldBegin: m.Constraint(mach, ln).Begin,
		NewBegin: e.EffSeq,
	}
}

// CommitFB applies the flush-buffer head (Algorithm 2, Commit_FB): the
// buffered clflushopt takes effect, raising the flusher's constraint Begin
// for the line to the entry's effective timestamp.
func (m *Memory) CommitFB(tb *ThreadBuf, mach MachineID) FlushEffect {
	if len(tb.FB) == 0 {
		panic("memmodel: CommitFB on empty flush buffer")
	}
	e := tb.popFB()
	ln := LineOf(e.Addr)
	old, now := m.RaiseBegin(mach, ln, e.EffSeq)
	return FlushEffect{Machine: mach, Line: ln, OldBegin: old.Begin, NewBegin: now.Begin}
}

// CommitDirectStore appends a store to the cache immediately, bypassing
// the store buffer. It implements the store half of locked RMW sequences
// (paper §4.4: mfence; load; store; mfence executed atomically — the
// surrounding fences mean the store takes effect on the cache at once).
func (m *Memory) CommitDirectStore(tb *ThreadBuf, mach MachineID, a Addr, size uint8, val uint64) Store {
	st := Store{Addr: a, Size: size, Val: val, Seq: m.nextSeq(), Machine: mach}
	m.appendStore(tb, st)
	return st
}
