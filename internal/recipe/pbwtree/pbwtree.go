// Package pbwtree reimplements P-BwTree (the RECIPE port of the Bw-Tree)
// over simulated CXL shared memory, with the five Table 3 bugs (#14–#18)
// behind toggles.
//
// The Bw-Tree is log structured: a mapping table maps logical node ids to
// the head of a delta chain; inserts prepend flushed delta records and
// commit by storing the mapping slot; once a chain grows past a
// threshold it is consolidated into a new flushed base node, and the old
// chain is retired to an epoch-based garbage list. Keys are partitioned
// across logical nodes (structure-modification operations of the full
// Bw-Tree are out of scope; the Table 3 bugs all live in the allocation
// and GC metadata paths, which are fully modelled).
//
// Everything the structure needs lives in CXL memory, including its own
// allocator (AllocationMeta: a chunk base and a bump offset), its GC
// metadata (list head + epoch), and the mapping table — so a surviving
// machine keeps allocating and consolidating after another machine
// fails, exactly the scenario the paper's bugs corrupt.
//
// The GC epoch counter is stored WITHOUT a flush by design: the paper
// (§6.3) observes that P-BwTree's unflushed epoch stores are benign
// (reading a stale epoch only delays reclamation) but cause many
// alternative post-crash read results, which is why its execution count
// collapses under GPF mode.
package pbwtree

import (
	cxlmc "repro"
	"repro/internal/recipe"
)

// Seeded bugs (Table 3 numbering).
const (
	// BugGCPtrFlush (#14): the tree header's pointer to the GC metadata
	// block is not flushed by the constructor.
	BugGCPtrFlush recipe.Bug = 1 << iota
	// BugGCMetaFlush (#15): the GC metadata block's initialization (list
	// head sentinel, start epoch) is not flushed.
	BugGCMetaFlush
	// BugAllocMetaCtorFlush (#16): AllocationMeta's constructor does not
	// flush the chunk base and initial offset.
	BugAllocMetaCtorFlush
	// BugAllocFlush (#17): the allocator's bump offset is not flushed
	// after an allocation, so a failure rewinds it and a survivor's
	// allocations overlap committed data.
	BugAllocFlush
	// BugTreeCtorFlush (#18): the BwTree constructor does not flush the
	// tree header (mapping table / allocator / GC pointers).
	BugTreeCtorFlush
)

// Benchmark describes P-BwTree to the harness.
var Benchmark = recipe.Benchmark{
	Name: "P-BwTree",
	New:  func(p *cxlmc.Program, bugs recipe.Bug) recipe.Index { return New(p, bugs) },
	Bugs: []recipe.BugInfo{
		{Bit: BugGCPtrFlush, Table: 14, Desc: "Missing flush of GC metadata pointer"},
		{Bit: BugGCMetaFlush, Table: 15, Desc: "Missing flush of GC metadata"},
		{Bit: BugAllocMetaCtorFlush, Table: 16, Desc: "Missing flush in AllocationMeta constructor"},
		{Bit: BugAllocFlush, Table: 17, Desc: "Missing flush in allocation"},
		{Bit: BugTreeCtorFlush, Table: 18, Desc: "Missing flush in BwTree constructor"},
	},
}

const (
	numNodes      = 2 // logical leaf nodes (keys partitioned by modulo)
	consolidateAt = 4 // delta-chain length triggering consolidation
	maxBaseRecs   = 64

	// Tree header (one line).
	hdrMapTable = 0
	hdrAlloc    = 8
	hdrGC       = 16

	// AllocationMeta block (one line).
	amBase   = 0
	amOffset = 8

	// GC metadata block (one line): list head (endOfList terminated) and
	// the reclamation epoch.
	gcHead  = 0
	gcEpoch = 8

	endOfList = 1 // odd sentinel, never a valid 8-aligned address

	// Node records are packed key(32)<<32 | value-cell offset(32).
	typeDelta  = 1
	typeBase   = 2
	typeDelete = 3 // delete delta: [8] packed key, [16] next

	// Delta layout: [0] type, [8] record, [16] next (node ptr or 0).
	// Base layout: [0] type, [8] count, [16..] records.
	chunkSize = 1 << 20
)

// Tree is one P-BwTree instance.
type Tree struct {
	mu   *cxlmc.Mutex
	hdr  cxlmc.Addr
	bugs recipe.Bug
}

// New lays out a tree (no simulated stores; see Init).
func New(p *cxlmc.Program, bugs recipe.Bug) *Tree {
	return &Tree{mu: p.NewMutex("pbwtree"), hdr: p.AllocAligned(64, 64), bugs: bugs}
}

// Init runs the constructor: mapping table, AllocationMeta, GC metadata,
// and the tree header tying them together.
func (tr *Tree) Init(t *cxlmc.Thread) {
	// AllocationMeta: a CXL-resident chunk with a bump offset.
	am := t.AllocAligned(64, 64)
	chunk := t.AllocAligned(chunkSize, 64)
	t.Store64(am+amBase, uint64(chunk))
	t.Store64(am+amOffset, 0)
	if !tr.bugs.Has(BugAllocMetaCtorFlush) {
		t.CLFlush(am)
		t.SFence()
	}

	// GC metadata: empty list (sentinel head), epoch 1.
	gc := t.AllocAligned(64, 64)
	t.Store64(gc+gcHead, endOfList)
	t.Store64(gc+gcEpoch, 1)
	if !tr.bugs.Has(BugGCMetaFlush) {
		t.CLFlush(gc)
		t.SFence()
	}

	// Mapping table: one slot per logical node, 0 = empty chain.
	mt := t.AllocAligned(numNodes*8, 64)
	t.CLFlush(mt)
	t.SFence()

	// Tree header.
	t.Store64(tr.hdr+hdrMapTable, uint64(mt))
	t.Store64(tr.hdr+hdrAlloc, uint64(am))
	if tr.bugs.Has(BugGCPtrFlush) {
		// Buggy: the GC pointer is stored after the header flush and
		// never flushed itself.
		if !tr.bugs.Has(BugTreeCtorFlush) {
			t.CLFlush(tr.hdr)
			t.SFence()
		}
		t.Store64(tr.hdr+hdrGC, uint64(gc))
		return
	}
	t.Store64(tr.hdr+hdrGC, uint64(gc))
	if !tr.bugs.Has(BugTreeCtorFlush) {
		t.CLFlush(tr.hdr)
		t.SFence()
	}
}

// alloc bumps the CXL-resident allocator; flushing the new offset is
// what bug #17 omits.
func (tr *Tree) alloc(t *cxlmc.Thread, size uint64) cxlmc.Addr {
	am := cxlmc.Addr(t.Load64(tr.hdr + hdrAlloc))
	base := cxlmc.Addr(t.Load64(am + amBase))
	off := t.Load64(am + amOffset)
	size = (size + 7) &^ 7
	t.Store64(am+amOffset, off+size)
	if !tr.bugs.Has(BugAllocFlush) {
		t.CLFlush(am + amOffset)
		t.SFence()
	}
	return base + cxlmc.Addr(off)
}

func pack(key uint64, cell cxlmc.Addr) uint64 { return key<<32 | uint64(cell) }
func unpack(rec uint64) (uint64, cxlmc.Addr)  { return rec >> 32, cxlmc.Addr(rec & 0xFFFFFFFF) }

// nodeID routes a key to its logical node.
func nodeID(key uint64) cxlmc.Addr { return cxlmc.Addr(key % numNodes * 8) }

// flushRange flushes every line of [base, base+size).
func flushRange(t *cxlmc.Thread, base cxlmc.Addr, size uint64) {
	for ln := base / 64 * 64; ln < base+cxlmc.Addr(size); ln += 64 {
		t.CLFlushOpt(ln)
	}
	t.SFence()
}

// Insert adds key→val: a flushed value cell, a flushed delta, and the
// flushed mapping-slot store as the commit.
func (tr *Tree) Insert(t *cxlmc.Thread, key, val uint64) {
	tr.mu.Lock(t)
	defer tr.mu.Unlock(t)

	// Join and advance the epoch (real Bw-Tree threads pin an epoch
	// before touching nodes, and the epoch manager ticks per operation).
	// The tick is a plain unflushed store: a stale epoch only delays
	// reclamation, so correctness does not require persistence — but
	// each unflushed epoch value is an alternative post-crash read,
	// which is exactly why P-BwTree's exploration collapses under GPF
	// mode (§6.3).
	gc := cxlmc.Addr(t.Load64(tr.hdr + hdrGC))
	epoch := t.Load64(gc + gcEpoch)
	t.Store64(gc+gcEpoch, epoch+1)

	cell := tr.alloc(t, 8)
	t.Store64(cell, val)
	flushRange(t, cell, 8)

	mt := cxlmc.Addr(t.Load64(tr.hdr + hdrMapTable))
	slot := mt + nodeID(key)
	head := t.Load64(slot)

	delta := tr.alloc(t, 24)
	t.Store64(delta+0, typeDelta)
	t.Store64(delta+8, pack(key, cell))
	t.Store64(delta+16, head)
	flushRange(t, delta, 24)

	t.Store64(slot, uint64(delta))
	t.CLFlush(slot)
	t.SFence()

	if tr.chainLen(t, cxlmc.Addr(t.Load64(slot))) >= consolidateAt {
		tr.consolidate(t, slot)
	}
}

// chainLen counts delta records before the base node.
func (tr *Tree) chainLen(t *cxlmc.Thread, node cxlmc.Addr) int {
	n := 0
	for node != 0 {
		typ := t.Load64(node)
		if typ != typeDelta && typ != typeDelete {
			break
		}
		n++
		node = cxlmc.Addr(t.Load64(node + 16))
	}
	return n
}

// consolidate merges a delta chain into a fresh flushed base node,
// commits it through the mapping slot, retires the old chain to the GC
// list, bumps the epoch (unflushed, deliberately), and runs reclamation.
func (tr *Tree) consolidate(t *cxlmc.Thread, slot cxlmc.Addr) {
	old := cxlmc.Addr(t.Load64(slot))

	// Collect records: newest delta wins per key. A well-formed chain
	// fits the arrays; an overflowing one spills to the heap until the
	// check below fails it.
	var keyBuf, delBuf [maxBaseRecs]uint64
	var cellBuf [maxBaseRecs]cxlmc.Addr
	keys, cells, deleted := keyBuf[:0], cellBuf[:0], delBuf[:0]
	node := old
	for node != 0 {
		switch t.Load64(node) {
		case typeDelete:
			k, _ := unpack(t.Load64(node + 8))
			if !containsKey(keys, k) && !containsKey(deleted, k) {
				deleted = append(deleted, k)
			}
			node = cxlmc.Addr(t.Load64(node + 16))
			continue
		case typeDelta:
			k, c := unpack(t.Load64(node + 8))
			if !containsKey(keys, k) && !containsKey(deleted, k) {
				keys = append(keys, k)
				cells = append(cells, c)
			}
			node = cxlmc.Addr(t.Load64(node + 16))
			continue
		}
		// Base node: remaining records.
		cnt := t.Load64(node + 8)
		for i := uint64(0); i < cnt; i++ {
			k, c := unpack(t.Load64(node + 16 + cxlmc.Addr(i*8)))
			if !containsKey(keys, k) && !containsKey(deleted, k) {
				keys = append(keys, k)
				cells = append(cells, c)
			}
		}
		break
	}
	if len(keys) > maxBaseRecs {
		t.Fail("pbwtree: base node overflow (%d records)", len(keys))
	}

	base := tr.alloc(t, uint64(16+8*len(keys)))
	t.Store64(base+0, typeBase)
	t.Store64(base+8, uint64(len(keys)))
	for i := range keys {
		t.Store64(base+16+cxlmc.Addr(i*8), pack(keys[i], cells[i]))
	}
	flushRange(t, base, uint64(16+8*len(keys)))

	t.Store64(slot, uint64(base))
	t.CLFlush(slot)
	t.SFence()

	tr.retire(t, old)
}

func containsKey(keys []uint64, k uint64) bool {
	for _, x := range keys {
		if x == k {
			return true
		}
	}
	return false
}

// retire links the replaced chain into the GC list with the current
// epoch, bumps the epoch with an unflushed store, and reclaims old
// entries.
func (tr *Tree) retire(t *cxlmc.Thread, chain cxlmc.Addr) {
	gc := cxlmc.Addr(t.Load64(tr.hdr + hdrGC))
	epoch := t.Load64(gc + gcEpoch)

	gn := tr.alloc(t, 24)
	t.Store64(gn+0, uint64(chain))
	t.Store64(gn+8, epoch)
	t.Store64(gn+16, t.Load64(gc+gcHead))
	flushRange(t, gn, 24)
	t.Store64(gc+gcHead, uint64(gn))
	t.CLFlush(gc + gcHead)
	t.SFence()

	// Epoch bump: deliberately unflushed (benign: stale epochs only
	// delay reclamation — but they multiply post-crash read results,
	// the §6.3 effect).
	t.Store64(gc+gcEpoch, epoch+1)

	// Reclamation: entries at least two epochs old can no longer be
	// referenced; validate each retired chain head before "freeing" it.
	node := cxlmc.Addr(t.Load64(gc + gcHead))
	for node != endOfList {
		e := t.Load64(node + 8)
		if e+2 <= epoch+1 {
			retired := cxlmc.Addr(t.Load64(node))
			typ := t.Load64(retired)
			t.Assert(typ == typeDelta || typ == typeBase || typ == typeDelete,
				"pbwtree: GC reclaimed a non-node at %#x (type %d)", retired, typ)
		}
		node = cxlmc.Addr(t.Load64(node + 16))
	}
}

// Lookup returns the value for key: walk the delta chain, then the base.
func (tr *Tree) Lookup(t *cxlmc.Thread, key uint64) (uint64, bool) {
	mt := cxlmc.Addr(t.Load64(tr.hdr + hdrMapTable))
	node := cxlmc.Addr(t.Load64(mt + nodeID(key)))
	for node != 0 {
		switch t.Load64(node) {
		case typeDelete:
			k, _ := unpack(t.Load64(node + 8))
			if k == key {
				return 0, false
			}
			node = cxlmc.Addr(t.Load64(node + 16))
			continue
		case typeDelta:
			k, cell := unpack(t.Load64(node + 8))
			if k == key {
				return t.Load64(cell), true
			}
			node = cxlmc.Addr(t.Load64(node + 16))
			continue
		}
		cnt := t.Load64(node + 8)
		if cnt > maxBaseRecs {
			// A corrupt count would walk off the node; treat as absent
			// (the bounds assert lives in consolidation).
			return 0, false
		}
		for i := uint64(0); i < cnt; i++ {
			k, cell := unpack(t.Load64(node + 16 + cxlmc.Addr(i*8)))
			if k == key {
				return t.Load64(cell), true
			}
		}
		return 0, false
	}
	return 0, false
}

// Delete prepends a flushed delete delta; the flushed mapping-slot store
// is the commit, exactly like an insert. Deleting an absent key is a
// no-op.
func (tr *Tree) Delete(t *cxlmc.Thread, key uint64) bool {
	tr.mu.Lock(t)
	defer tr.mu.Unlock(t)
	if _, ok := tr.Lookup(t, key); !ok {
		return false
	}

	mt := cxlmc.Addr(t.Load64(tr.hdr + hdrMapTable))
	slot := mt + nodeID(key)
	head := t.Load64(slot)

	delta := tr.alloc(t, 24)
	t.Store64(delta+0, typeDelete)
	t.Store64(delta+8, pack(key, 0))
	t.Store64(delta+16, head)
	flushRange(t, delta, 24)

	t.Store64(slot, uint64(delta))
	t.CLFlush(slot)
	t.SFence()

	if tr.chainLen(t, cxlmc.Addr(t.Load64(slot))) >= consolidateAt {
		tr.consolidate(t, slot)
	}
	return true
}
