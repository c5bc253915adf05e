// Package pmasstree reimplements P-MassTree (the RECIPE port of
// Masstree) over simulated CXL shared memory, with the Table 3 bug #22
// behind a toggle.
//
// The structure is modelled as Masstree's leaf layer for fixed 8-byte
// keys: a sorted chain of one-cache-line leaves (Masstree's deeper trie
// layers only engage for longer keys). Each leaf holds packed
// key(32)<<32|value-cell(32) records; values live in flushed cells.
//
// Unlike FAST_FAIR, Masstree does not make in-node shifts failure atomic
// step by step: writers hold the node lock, mutate with plain stores,
// and flush once at the end. Crash consistency relies on *recovery*: a
// crashed insert can leave a duplicated record, and whoever touches the
// node next must detect the crash and repair it. Under persistent
// memory's full-system failures the held lock bit survives the crash and
// is the evidence; under CXL partial failures the runtime auto-releases
// the failed owner's lock, destroying the evidence. That is exactly bug
// #22: the original code checks for needed recovery only during
// traversal, which cannot see a failure that happens afterwards. The
// fixed version uses the CXLMC lock API (paper §5): Lock reports whether
// the previous owner died holding the lock, and if so the node repair
// reruns before the records are trusted.
package pmasstree

import (
	cxlmc "repro"
	"repro/internal/recipe"
)

// Seeded bugs (Table 3 numbering).
const (
	// BugNoFailureDetection (#22): readers and writers ignore the lock
	// API's owner-failed signal, so a node left mid-update by a failed
	// machine is used without repair.
	BugNoFailureDetection recipe.Bug = 1 << iota
)

// Benchmark describes P-MassTree to the harness.
var Benchmark = recipe.Benchmark{
	Name: "P-MassTree",
	New:  func(p *cxlmc.Program, bugs recipe.Bug) recipe.Index { return New(p, bugs) },
	Bugs: []recipe.BugInfo{
		{Bit: BugNoFailureDetection, Table: 22, Desc: "Missing failure detection in key insertion", New: true},
	},
}

const (
	maxRecs  = 6 // records per leaf (one line: route word + 6 records + spare)
	leafSize = 64
	hdrRoute = 0 // highKey(32) | next leaf(32)
	recBase  = 8
)

// Tree is one P-MassTree instance.
type Tree struct {
	mu   *cxlmc.Mutex
	meta cxlmc.Addr // [0] head leaf
	bugs recipe.Bug
}

// New lays out a tree (no simulated stores; see Init).
func New(p *cxlmc.Program, bugs recipe.Bug) *Tree {
	return &Tree{mu: p.NewMutex("pmasstree"), meta: p.AllocAligned(64, 64), bugs: bugs}
}

func pack(key uint64, cell cxlmc.Addr) uint64 { return key<<32 | uint64(cell) }
func unpack(rec uint64) (uint64, cxlmc.Addr)  { return rec >> 32, cxlmc.Addr(rec & 0xFFFFFFFF) }

func packRoute(high uint64, next cxlmc.Addr) uint64 { return high<<32 | uint64(next) }
func unpackRoute(w uint64) (uint64, cxlmc.Addr)     { return w >> 32, cxlmc.Addr(w & 0xFFFFFFFF) }

func recOff(i int) cxlmc.Addr { return recBase + cxlmc.Addr(8*i) }

// Init runs the constructor: one empty leaf published through the meta
// word.
func (tr *Tree) Init(t *cxlmc.Thread) {
	leaf := t.AllocAligned(leafSize, 64)
	t.CLFlush(leaf)
	t.SFence()
	t.Store64(tr.meta, uint64(leaf))
	t.CLFlush(tr.meta)
	t.SFence()
}

// findLeaf walks the leaf chain to the leaf owning key.
func (tr *Tree) findLeaf(t *cxlmc.Thread, key uint64) cxlmc.Addr {
	leaf := cxlmc.Addr(t.Load64(tr.meta))
	for {
		high, next := unpackRoute(t.Load64(leaf + hdrRoute))
		if high == 0 || key < high || next == 0 {
			return leaf
		}
		leaf = next
	}
}

// checkFailure is the bug-#22 site: on acquiring the structure lock the
// fixed version asks whether the previous owner's machine failed while
// holding it, and repairs every node the crashed operation may have left
// inconsistent. The buggy version ignores the signal.
func (tr *Tree) checkFailure(t *cxlmc.Thread, ownerFailed bool) {
	if tr.bugs.Has(BugNoFailureDetection) || !ownerFailed {
		return
	}
	tr.recoverAll(t)
}

// recoverAll repairs crashed in-node updates: a crashed shift leaves an
// adjacent duplicate record, which compaction removes.
func (tr *Tree) recoverAll(t *cxlmc.Thread) {
	leaf := cxlmc.Addr(t.Load64(tr.meta))
	for leaf != 0 {
		tr.recoverLeaf(t, leaf)
		_, next := unpackRoute(t.Load64(leaf + hdrRoute))
		leaf = next
	}
}

func (tr *Tree) recoverLeaf(t *cxlmc.Thread, leaf cxlmc.Addr) {
	var buf [maxRecs]uint64
	recs := buf[:0]
	dirty := false
	var prev uint64
	for i := 0; i < maxRecs; i++ {
		rec := t.Load64(leaf + recOff(i))
		if rec == 0 {
			break
		}
		if rec == prev {
			dirty = true // crashed shift's duplicate
			continue
		}
		prev = rec
		recs = append(recs, rec)
	}
	if !dirty {
		return
	}
	for i := range recs {
		t.Store64(leaf+recOff(i), recs[i])
	}
	for i := len(recs); i < maxRecs; i++ {
		t.Store64(leaf+recOff(i), 0)
	}
	t.CLFlush(leaf)
	t.SFence()
}

// Insert adds key→val.
func (tr *Tree) Insert(t *cxlmc.Thread, key, val uint64) {
	ownerFailed := tr.mu.Lock(t)
	defer tr.mu.Unlock(t)
	tr.checkFailure(t, ownerFailed)

	cell := t.Alloc(8)
	t.Store64(cell, val)
	t.CLFlush(cell)
	t.SFence()

	for {
		leaf := tr.findLeaf(t, key)
		n := tr.count(t, leaf)
		if n < maxRecs {
			tr.insertInto(t, leaf, n, key, cell)
			return
		}
		tr.split(t, leaf)
	}
}

// count returns the number of live records (zero terminated; records at
// or past the high key are a crashed split's masked leftovers).
func (tr *Tree) count(t *cxlmc.Thread, leaf cxlmc.Addr) int {
	high, _ := unpackRoute(t.Load64(leaf + hdrRoute))
	for i := 0; i < maxRecs; i++ {
		rec := t.Load64(leaf + recOff(i))
		if rec == 0 {
			return i
		}
		if k, _ := unpack(rec); high != 0 && k >= high {
			return i
		}
	}
	return maxRecs
}

// insertInto performs Masstree's lock-protected shifted insert: plain
// stores, one flush at the end. A crash mid-way leaves a duplicate for
// recovery to clean up — the whole leaf is one cache line, so the
// persisted state is always a prefix of the store sequence.
func (tr *Tree) insertInto(t *cxlmc.Thread, leaf cxlmc.Addr, n int, key uint64, cell cxlmc.Addr) {
	pos := 0
	for pos < n {
		k, _ := unpack(t.Load64(leaf + recOff(pos)))
		if key == k {
			// Update in place: one flushed atomic record store.
			t.Store64(leaf+recOff(pos), pack(key, cell))
			t.CLFlush(leaf + recOff(pos))
			t.SFence()
			return
		}
		if key < k {
			break
		}
		pos++
	}
	for i := n - 1; i >= pos; i-- {
		t.Store64(leaf+recOff(i+1), t.Load64(leaf+recOff(i)))
	}
	t.Store64(leaf+recOff(pos), pack(key, cell))
	t.CLFlush(leaf)
	t.SFence()
}

// split moves the upper half of leaf into a new chained leaf; the single
// flushed route-word store is the commit point.
func (tr *Tree) split(t *cxlmc.Thread, leaf cxlmc.Addr) {
	half := maxRecs / 2
	splitKey, _ := unpack(t.Load64(leaf + recOff(half)))

	nl := t.AllocAligned(leafSize, 64)
	t.Store64(nl+hdrRoute, t.Load64(leaf+hdrRoute))
	for i := half; i < maxRecs; i++ {
		t.Store64(nl+recOff(i-half), t.Load64(leaf+recOff(i)))
	}
	t.CLFlush(nl)
	t.SFence()

	t.Store64(leaf+hdrRoute, packRoute(splitKey, nl))
	t.CLFlush(leaf + hdrRoute)
	t.SFence()

	for i := maxRecs - 1; i >= half; i-- {
		t.Store64(leaf+recOff(i), 0)
	}
	t.CLFlush(leaf)
	t.SFence()
}

// Lookup returns the value for key. The fixed version takes the lock to
// learn about owner failures and repair first; the buggy version reads
// the records as they are.
func (tr *Tree) Lookup(t *cxlmc.Thread, key uint64) (uint64, bool) {
	ownerFailed := tr.mu.Lock(t)
	tr.checkFailure(t, ownerFailed)
	defer tr.mu.Unlock(t)

	leaf := tr.findLeaf(t, key)
	high, _ := unpackRoute(t.Load64(leaf + hdrRoute))
	for i := 0; i < maxRecs; i++ {
		rec := t.Load64(leaf + recOff(i))
		if rec == 0 {
			break
		}
		k, cell := unpack(rec)
		if high != 0 && k >= high {
			continue
		}
		if k == key {
			return t.Load64(cell), true
		}
	}
	return 0, false
}

// Scan returns all live records in key order.
func (tr *Tree) Scan(t *cxlmc.Thread) ([]uint64, []uint64) {
	ownerFailed := tr.mu.Lock(t)
	tr.checkFailure(t, ownerFailed)
	defer tr.mu.Unlock(t)

	ks, vs := recipe.ScanSlices()
	leaf := cxlmc.Addr(t.Load64(tr.meta))
	for leaf != 0 {
		high, next := unpackRoute(t.Load64(leaf + hdrRoute))
		for i := 0; i < maxRecs; i++ {
			rec := t.Load64(leaf + recOff(i))
			if rec == 0 {
				break
			}
			k, cell := unpack(rec)
			if high != 0 && k >= high {
				continue
			}
			ks = append(ks, k)
			vs = append(vs, t.Load64(cell))
		}
		leaf = next
	}
	return ks, vs
}

// Delete removes key with a lock-protected left shift (plain stores, one
// flush); a crash mid-shift leaves an adjacent duplicate for the
// lock-API recovery to clean up, like Insert.
func (tr *Tree) Delete(t *cxlmc.Thread, key uint64) bool {
	ownerFailed := tr.mu.Lock(t)
	defer tr.mu.Unlock(t)
	tr.checkFailure(t, ownerFailed)

	leaf := tr.findLeaf(t, key)
	n := tr.count(t, leaf)
	pos := -1
	for i := 0; i < n; i++ {
		if k, _ := unpack(t.Load64(leaf + recOff(i))); k == key {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false
	}
	for i := pos; i < n-1; i++ {
		t.Store64(leaf+recOff(i), t.Load64(leaf+recOff(i+1)))
	}
	t.Store64(leaf+recOff(n-1), 0)
	t.CLFlush(leaf)
	t.SFence()
	return true
}
