package memmodel

// This file implements the per-thread reordering buffers of the model
// (paper §4.1, Algorithm 1):
//
//   - S_τ, the store buffer, holds store, clflush, clflushopt and sfence
//     instructions executed by thread τ that have not yet taken effect on
//     the cache. Entries leave S_τ in FIFO order.
//   - F_τ, the flush buffer, holds clflushopt instructions that have left
//     S_τ but not yet taken effect, implementing clflushopt's weaker
//     ordering (it may reorder with later stores and clflushopt, but not
//     past a later sfence/mfence).
//
// Executing an instruction (Exec*) merely enqueues it; the checker decides
// when entries commit (Memory.Commit*), which is where σ is assigned.

// SBKind discriminates store-buffer entries.
type SBKind uint8

// Store-buffer entry kinds.
const (
	SBStore SBKind = iota
	SBClflush
	SBClflushopt
	SBSfence
)

func (k SBKind) String() string {
	switch k {
	case SBStore:
		return "store"
	case SBClflush:
		return "clflush"
	case SBClflushopt:
		return "clflushopt"
	case SBSfence:
		return "sfence"
	}
	return "unknown"
}

// SBEntry is one entry of a store buffer S_τ.
type SBEntry struct {
	Kind SBKind
	// St is the pending store (Seq unassigned) for SBStore entries.
	St Store
	// Addr is the flushed address for SBClflush/SBClflushopt entries.
	Addr Addr
	// ExecSeq is σ_curr observed when a clflushopt was executed; it is one
	// input to the entry's effective flush timestamp (Algorithm 2,
	// Commit_SB(clflushopt)).
	ExecSeq Seq
}

// FBEntry is one entry of a flush buffer F_τ: a clflushopt whose effective
// timestamp has been computed but whose constraint update has not yet been
// applied (it may still be "reordered" past later instructions simply by
// remaining buffered).
type FBEntry struct {
	Addr   Addr
	EffSeq Seq
}

// ThreadBuf holds the buffering state of one simulated thread: S_τ, F_τ,
// and the bookkeeping timestamps t_τ (last sfence) and t_{τ,line} (last
// store or clflush per cache line) used to order clflushopt.
type ThreadBuf struct {
	SB []SBEntry
	FB []FBEntry
	// TSfence is t_τ: the timestamp of the last sfence committed by the
	// thread.
	TSfence Seq
	// tline is t_{τ,CacheID}: per cache line, the timestamp of the last
	// store or clflush committed by the thread to that line (0: none). It
	// is indexed by the line's slot in the Memory the thread commits to
	// (Memory.Slot), so it is as long as that memory's touched set; a
	// ThreadBuf must not be shared between memories.
	tline []Seq
}

// NewThreadBuf returns an empty buffer state.
func NewThreadBuf() *ThreadBuf { return &ThreadBuf{} }

// Reset empties the buffer state in place, keeping the entry slices and
// timestamp table allocated for the next execution.
func (tb *ThreadBuf) Reset() {
	tb.SB = tb.SB[:0]
	tb.FB = tb.FB[:0]
	tb.TSfence = 0
	clear(tb.tline)
}

// ExecStore enqueues a store (Algorithm 1). The value must fit in size
// bytes; the caller guarantees alignment within a cache line for sizes > 1
// (x86 stores used by the benchmarks are naturally aligned, so a single
// store never straddles cache lines).
func (tb *ThreadBuf) ExecStore(a Addr, size uint8, val uint64) {
	tb.SB = append(tb.SB, SBEntry{Kind: SBStore, St: Store{Addr: a, Size: size, Val: val}})
}

// ExecClflush enqueues a clflush (Algorithm 1). clflush is ordered with
// respect to everything except earlier clflushopt to other lines, which is
// conservatively preserved by FIFO S_τ order (Table 1 marks W→clflush and
// clflush→W as ordered).
func (tb *ThreadBuf) ExecClflush(a Addr) {
	tb.SB = append(tb.SB, SBEntry{Kind: SBClflush, Addr: a})
}

// ExecClflushopt enqueues a clflushopt, recording σ_curr at execution time
// (now); the commit path combines it with t_τ and t_{τ,line} to compute
// the earliest timestamp at which the flush may take effect.
func (tb *ThreadBuf) ExecClflushopt(a Addr, now Seq) {
	tb.SB = append(tb.SB, SBEntry{Kind: SBClflushopt, Addr: a, ExecSeq: now})
}

// ExecSfence enqueues an sfence (Algorithm 1).
func (tb *ThreadBuf) ExecSfence() {
	tb.SB = append(tb.SB, SBEntry{Kind: SBSfence})
}

// BypassByte implements TSO local bypassing for one byte (Algorithm 3,
// lines 8–10): the newest store in S_τ covering byte b supplies the value.
// ok is false when no buffered store covers b and the load must go to the
// cache.
func (tb *ThreadBuf) BypassByte(b Addr) (val byte, ok bool) {
	for i := len(tb.SB) - 1; i >= 0; i-- {
		e := &tb.SB[i]
		if e.Kind == SBStore && e.St.Covers(b) {
			return e.St.Byte(b), true
		}
	}
	return 0, false
}

// BypassRun is BypassByte for the n bytes at b at once. The newest store in
// S_τ covering b supplies every byte up to its own end, or up to the first
// byte a still newer buffered store covers: ok is true and val holds those k
// bytes, exactly the bytes BypassByte would return one by one. When no
// buffered store covers b, ok is false and k counts the bytes from b on that
// none covers — the run the load must take to the cache.
func (tb *ThreadBuf) BypassRun(b Addr, n int) (val uint64, k int, ok bool) {
	end := b + Addr(n)
	for i := len(tb.SB) - 1; i >= 0; i-- {
		e := &tb.SB[i]
		if e.Kind != SBStore {
			continue
		}
		if val, end, ok = e.St.run(b, end); ok {
			break
		}
	}
	return val, int(end - b), ok
}

// Empty reports whether both S_τ and F_τ are drained.
func (tb *ThreadBuf) Empty() bool { return len(tb.SB) == 0 && len(tb.FB) == 0 }

// Buffered returns the number of enqueued store- and flush-buffer
// entries: an upper bound on the commit steps (and failure decision
// points) the thread can still produce without executing further
// instructions. The checker's reduction headroom proof relies on it.
func (tb *ThreadBuf) Buffered() int { return len(tb.SB) + len(tb.FB) }

// Head returns the next store-buffer entry to commit, or nil.
func (tb *ThreadBuf) Head() *SBEntry {
	if len(tb.SB) == 0 {
		return nil
	}
	return &tb.SB[0]
}

// popSB removes and returns the head of S_τ; it must not be empty.
func (tb *ThreadBuf) popSB() SBEntry {
	e := tb.SB[0]
	// Shift rather than re-slice so the backing array doesn't pin every
	// committed entry for the rest of the execution.
	copy(tb.SB, tb.SB[1:])
	tb.SB = tb.SB[:len(tb.SB)-1]
	return e
}

// popFB removes and returns the head of F_τ; it must not be empty.
func (tb *ThreadBuf) popFB() FBEntry {
	e := tb.FB[0]
	copy(tb.FB, tb.FB[1:])
	tb.FB = tb.FB[:len(tb.FB)-1]
	return e
}

// Discard drops all buffered entries; used when the thread's machine
// fails (buffered stores never reached the cache and are simply lost).
func (tb *ThreadBuf) Discard() {
	tb.SB = tb.SB[:0]
	tb.FB = tb.FB[:0]
}

// lineOp records that the thread committed a store or clflush to the line
// in slot at timestamp s (updates t_{τ,line}).
func (tb *ThreadBuf) lineOp(slot int32, s Seq) {
	for len(tb.tline) <= int(slot) {
		tb.tline = append(tb.tline, 0)
	}
	tb.tline[slot] = s
}

// lastLineOp returns t_{τ,line} for the line in slot; slot is -1 for a
// line the memory has no record of.
func (tb *ThreadBuf) lastLineOp(slot int32) Seq {
	if uint(slot) < uint(len(tb.tline)) {
		return tb.tline[slot]
	}
	return 0
}
