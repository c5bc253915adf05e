// Package fastfair reimplements FAST_FAIR (the failure-atomic B+-tree of
// Hwang et al., as ported by RECIPE) over simulated CXL shared memory,
// with the five Table 3 bugs (#4–#8) behind toggles.
//
// Pages are cache-line aligned with a one-line (64-byte) header followed
// by packed records:
//
//	[0]  leftmost child (internal pages: child for keys below the first
//	     record's key)
//	[8]  routing word: highKey(32) << 32 | sibling page offset(32),
//	     written with one flushed 8-byte store so split commits are
//	     failure atomic
//	[16] level (0 = leaf)
//	[24..63] reserved/padding (the real header's remaining fields; the
//	     padding bug #4 shifts the record area off its 8-byte alignment)
//
// A record is one 8-byte word key(32) << 32 | ptr(32): FAST's in-place
// shifts move whole records with single stores, so a crashed shift can
// duplicate an entry but never tear one — unless the padding bug makes
// records straddle cache lines, in which case the two halves persist
// independently (exactly the paper's bug #4). Leaf record pointers refer
// to flushed value cells; internal record pointers refer to child pages.
//
// Readers tolerate crashed shifts by skipping a record identical to its
// left neighbour (the in-shift duplicate); omitting that check is the
// paper's bug #7, "missing failure detection in key insertion".
package fastfair

import (
	cxlmc "repro"
	"repro/internal/recipe"
)

// Seeded bugs (Table 3 numbering).
const (
	// BugHeaderPadding (#4): the header packs a 2-byte field so the
	// compiler adds an extra padding byte, shifting the record area to
	// offset 49 and making some records straddle cache lines; a single
	// clflush then covers only half a record.
	BugHeaderPadding recipe.Bug = 1 << iota
	// BugHeaderCtorFlush (#5): a split's new page header (routing word,
	// level, leftmost) is not flushed.
	BugHeaderCtorFlush
	// BugEntryCtorFlush (#6): a new entry's value cell is not flushed
	// before the record pointing at it commits.
	BugEntryCtorFlush
	// BugNoDupDetect (#7): readers do not skip the duplicate record a
	// crashed shift leaves behind.
	BugNoDupDetect
	// BugTreeCtorFlush (#8): the tree constructor does not flush the
	// root pointer.
	BugTreeCtorFlush
)

// Benchmark describes FAST_FAIR to the harness.
var Benchmark = recipe.Benchmark{
	Name: "FAST_FAIR",
	New:  func(p *cxlmc.Program, bugs recipe.Bug) recipe.Index { return New(p, bugs) },
	Bugs: []recipe.BugInfo{
		{Bit: BugHeaderPadding, Table: 4, Desc: "Incorrect padding in header", New: true, Keys: 12},
		{Bit: BugHeaderCtorFlush, Table: 5, Desc: "Missing flush in header constructor", Keys: 16},
		{Bit: BugEntryCtorFlush, Table: 6, Desc: "Missing flush in entry constructor"},
		{Bit: BugNoDupDetect, Table: 7, Desc: "Missing failure detection in key insertion", New: true, Keys: 12},
		{Bit: BugTreeCtorFlush, Table: 8, Desc: "Missing flush in btree constructor"},
	},
}

const (
	maxRecs = 8 // records per page
	// pageSize leaves slack so the padding bug's shift stays in bounds
	// (the real bug corrupts data, it does not fault on layout).
	pageSize = 64 + (maxRecs+1)*8 + 8
	hdrLeft  = 0
	hdrRoute = 8
	hdrLevel = 16
)

// Tree is one FAST_FAIR instance.
type Tree struct {
	mu   *cxlmc.Mutex
	meta cxlmc.Addr // [0] root page
	bugs recipe.Bug
}

// New lays out a tree (no simulated stores; see Init).
func New(p *cxlmc.Program, bugs recipe.Bug) *Tree {
	return &Tree{mu: p.NewMutex("fastfair"), meta: p.AllocAligned(64, 64), bugs: bugs}
}

// recOff returns the byte offset of record i. The padding bug (#4)
// misaligns the record area: the header's misaligned 2-byte field makes
// the compiler grow it past the next 4-byte boundary, so record 1 spans
// the cache-line boundary with its key half and pointer half on
// different lines — a single clflush then persists only half of it.
func (tr *Tree) recOff(i int) cxlmc.Addr {
	base := cxlmc.Addr(64)
	if tr.bugs.Has(BugHeaderPadding) {
		base = 68
	}
	return base + cxlmc.Addr(8*i)
}

func memLine(a cxlmc.Addr) cxlmc.Addr { return a / 64 }

func pack(key uint64, ptr cxlmc.Addr) uint64 { return key<<32 | uint64(ptr) }
func unpack(rec uint64) (key uint64, ptr cxlmc.Addr) {
	return rec >> 32, cxlmc.Addr(rec & 0xFFFFFFFF)
}

func packRoute(highKey uint64, sibling cxlmc.Addr) uint64 {
	return highKey<<32 | uint64(sibling)
}
func unpackRoute(w uint64) (highKey uint64, sibling cxlmc.Addr) {
	return w >> 32, cxlmc.Addr(w & 0xFFFFFFFF)
}

// newPage allocates a page and writes its header; flushing the header is
// what bug #5 omits.
func (tr *Tree) newPage(t *cxlmc.Thread, level uint64, leftmost cxlmc.Addr, route uint64) cxlmc.Addr {
	pg := t.AllocAligned(pageSize, 64)
	t.Store64(pg+hdrLeft, uint64(leftmost))
	t.Store64(pg+hdrRoute, route)
	t.Store64(pg+hdrLevel, level)
	if !tr.bugs.Has(BugHeaderCtorFlush) {
		t.CLFlush(pg)
		t.SFence()
	}
	return pg
}

// Init runs the constructor: an empty leaf root published through the
// meta word.
func (tr *Tree) Init(t *cxlmc.Thread) {
	root := tr.newPage(t, 0, 0, 0)
	t.Store64(tr.meta, uint64(root))
	if !tr.bugs.Has(BugTreeCtorFlush) {
		t.CLFlush(tr.meta)
		t.SFence()
	}
}

// readRec reads record i of page pg, applying the duplicate-skip rule
// (unless bug #7 disables it): a record equal to its left neighbour is a
// crashed shift's leftover. dup=true tells the caller to skip the slot
// and keep scanning — a duplicate occupies a slot in the middle of the
// array, so it must not be confused with the zero terminator.
func (tr *Tree) readRec(t *cxlmc.Thread, pg cxlmc.Addr, i int) (rec uint64, dup bool) {
	rec = t.Load64(pg + tr.recOff(i))
	if rec == 0 || tr.bugs.Has(BugNoDupDetect) {
		return rec, false
	}
	if i > 0 && t.Load64(pg+tr.recOff(i-1)) == rec {
		return rec, true
	}
	return rec, false
}

// count returns the number of live records in pg: records are
// left-packed and zero terminated, and a record at or beyond the page's
// high key is a crashed split's untruncated leftover (logically moved to
// the sibling) — counting those as live would re-split the page with a
// bogus split key and strand the untruncated range.
func (tr *Tree) count(t *cxlmc.Thread, pg cxlmc.Addr) int {
	high, _ := unpackRoute(t.Load64(pg + hdrRoute))
	for i := 0; i < maxRecs+1; i++ {
		rec := t.Load64(pg + tr.recOff(i))
		if rec == 0 {
			return i
		}
		if k, _ := unpack(rec); high != 0 && k >= high {
			return i
		}
	}
	return maxRecs + 1
}

// stepRight follows sibling links while key is at or beyond the page's
// high key (FAST_FAIR's tolerance for in-progress splits).
func (tr *Tree) stepRight(t *cxlmc.Thread, pg cxlmc.Addr, key uint64) cxlmc.Addr {
	for {
		high, sib := unpackRoute(t.Load64(pg + hdrRoute))
		if high == 0 || key < high || sib == 0 {
			return pg
		}
		pg = sib
	}
}

// Lookup returns the value for key.
func (tr *Tree) Lookup(t *cxlmc.Thread, key uint64) (uint64, bool) {
	leaf := tr.findLevel(t, key, 0)
	for i := 0; i < maxRecs+1; i++ {
		rec, dup := tr.readRec(t, leaf, i)
		if rec == 0 {
			break
		}
		if dup {
			continue
		}
		k, ptr := unpack(rec)
		if k == key {
			return t.Load64(ptr), true
		}
	}
	return 0, false
}

// Insert adds key→val.
func (tr *Tree) Insert(t *cxlmc.Thread, key, val uint64) {
	tr.mu.Lock(t)
	defer tr.mu.Unlock(t)

	// The value cell is the "entry object": it must be durable before
	// the record pointing at it becomes visible (bug #6 omits the
	// flush).
	cell := t.Alloc(8)
	t.Store64(cell, val)
	if !tr.bugs.Has(BugEntryCtorFlush) {
		t.CLFlush(cell)
		t.SFence()
	}
	tr.insertAt(t, key, cell, 0)
}

// insertAt inserts a record at the given tree level (0 = leaf), splitting
// as needed.
func (tr *Tree) insertAt(t *cxlmc.Thread, key uint64, ptr cxlmc.Addr, level uint64) {
	for {
		pg := tr.findLevel(t, key, level)
		n := tr.count(t, pg)
		if n < maxRecs {
			tr.insertInto(t, pg, n, key, ptr)
			return
		}
		tr.split(t, pg, level)
	}
}

// findLevel descends to the page at the given level responsible for key.
func (tr *Tree) findLevel(t *cxlmc.Thread, key uint64, level uint64) cxlmc.Addr {
	pg := cxlmc.Addr(t.Load64(tr.meta))
	for {
		pg = tr.stepRight(t, pg, key)
		l := t.Load64(pg + hdrLevel)
		if l == level {
			return pg
		}
		child := cxlmc.Addr(t.Load64(pg + hdrLeft))
		for i := 0; i < maxRecs+1; i++ {
			rec, dup := tr.readRec(t, pg, i)
			if rec == 0 {
				break
			}
			if dup {
				continue
			}
			k, c := unpack(rec)
			if key < k {
				break
			}
			child = c
		}
		pg = child
	}
}

// insertInto performs FAST's failure-atomic shifted insert: records move
// right one at a time with single flushed 8-byte stores; a crash leaves
// at most one adjacent duplicate, which readers skip.
func (tr *Tree) insertInto(t *cxlmc.Thread, pg cxlmc.Addr, n int, key uint64, ptr cxlmc.Addr) {
	pos := 0
	for pos < n {
		k, _ := unpack(t.Load64(pg + tr.recOff(pos)))
		if key < k {
			break
		}
		pos++
	}
	for i := n - 1; i >= pos; i-- {
		t.Store64(pg+tr.recOff(i+1), t.Load64(pg+tr.recOff(i)))
	}
	t.Store64(pg+tr.recOff(pos), pack(key, ptr))
	// FAST flushes once per touched cache line, not per moved record:
	// the failure atomicity comes from 8-byte store ordering, and
	// readers skipping the in-shift duplicate — not from flushing every
	// step. (All records of a page share one line in this layout.)
	t.CLFlush(pg + tr.recOff(pos))
	if memLine(pg+tr.recOff(pos)) != memLine(pg+tr.recOff(n)) {
		t.CLFlush(pg + tr.recOff(n))
	}
	t.SFence()
}

// split moves the upper half of pg into a fresh sibling. The single
// flushed store of pg's routing word is the commit point; until the
// parent learns about the sibling, readers reach it through stepRight.
func (tr *Tree) split(t *cxlmc.Thread, pg cxlmc.Addr, level uint64) {
	half := maxRecs / 2
	splitKey, _ := unpack(t.Load64(pg + tr.recOff(half)))

	var newLeft cxlmc.Addr
	if level > 0 {
		// An internal split promotes the middle record's child as the
		// new page's leftmost.
		_, newLeft = unpack(t.Load64(pg + tr.recOff(half)))
	}
	route := t.Load64(pg + hdrRoute)
	np := tr.newPage(t, level, newLeft, route)
	src := half
	if level > 0 {
		src = half + 1 // the split key itself moves up, not right
	}
	for i := src; i < maxRecs; i++ {
		rec := t.Load64(pg + tr.recOff(i))
		t.Store64(np+tr.recOff(i-src), rec)
		t.CLFlushOpt(np + tr.recOff(i-src))
	}
	t.SFence()

	// Commit: one flushed store publishes both the high key and the
	// sibling pointer.
	t.Store64(pg+hdrRoute, packRoute(splitKey, np))
	t.CLFlush(pg + hdrRoute)
	t.SFence()

	// Truncate the moved records from the right so the array stays
	// left-packed through a crash (the leftovers are masked by the high
	// key anyway).
	for i := maxRecs - 1; i >= half; i-- {
		t.Store64(pg+tr.recOff(i), 0)
		t.CLFlushOpt(pg + tr.recOff(i))
	}
	t.SFence()

	// Tell the parent; if pg was the root, grow the tree.
	root := cxlmc.Addr(t.Load64(tr.meta))
	if pg == root {
		nr := tr.newPage(t, level+1, pg, 0)
		t.Store64(nr+tr.recOff(0), pack(splitKey, np))
		t.CLFlush(nr + tr.recOff(0))
		t.SFence()
		t.Store64(tr.meta, uint64(nr))
		t.CLFlush(tr.meta)
		t.SFence()
		return
	}
	tr.insertAt(t, splitKey, np, level+1)
}

// Scan returns all live leaf records in key order.
func (tr *Tree) Scan(t *cxlmc.Thread) ([]uint64, []uint64) {
	// Descend along leftmost pointers to the first leaf.
	pg := cxlmc.Addr(t.Load64(tr.meta))
	for t.Load64(pg+hdrLevel) > 0 {
		pg = cxlmc.Addr(t.Load64(pg + hdrLeft))
	}
	ks, vs := recipe.ScanSlices()
	for pg != 0 {
		high, sib := unpackRoute(t.Load64(pg + hdrRoute))
		for i := 0; i < maxRecs+1; i++ {
			rec, dup := tr.readRec(t, pg, i)
			if rec == 0 {
				break
			}
			if dup {
				continue
			}
			k, ptr := unpack(rec)
			if high != 0 && k >= high {
				// Masked by the high key: logically moved to the
				// sibling.
				continue
			}
			ks = append(ks, k)
			vs = append(vs, t.Load64(ptr))
		}
		pg = sib
	}
	return ks, vs
}

// Delete removes key with FAIR's shifted in-place removal: records shift
// left one at a time with single 8-byte stores, leaving at most an
// adjacent duplicate for readers to skip, and one flush commits the
// touched line(s).
func (tr *Tree) Delete(t *cxlmc.Thread, key uint64) bool {
	tr.mu.Lock(t)
	defer tr.mu.Unlock(t)
	pg := tr.findLevel(t, key, 0)
	deleted := false
	// Repeat until no record with the key remains: a crashed shift by a
	// failed machine can have left a duplicate of the key, and removing
	// only the first copy would un-mask the second (this repository's
	// checker found exactly that resurrection).
	for {
		n := tr.count(t, pg)
		pos := -1
		for i := 0; i < n; i++ {
			if k, _ := unpack(t.Load64(pg + tr.recOff(i))); k == key {
				pos = i
				break
			}
		}
		if pos < 0 {
			return deleted
		}
		for i := pos; i < n-1; i++ {
			t.Store64(pg+tr.recOff(i), t.Load64(pg+tr.recOff(i+1)))
		}
		t.Store64(pg+tr.recOff(n-1), 0)
		t.CLFlush(pg + tr.recOff(pos))
		if memLine(pg+tr.recOff(pos)) != memLine(pg+tr.recOff(n-1)) {
			t.CLFlush(pg + tr.recOff(n-1))
		}
		t.SFence()
		deleted = true
	}
}
