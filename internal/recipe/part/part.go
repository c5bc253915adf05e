// Package part reimplements P-ART (the RECIPE port of the Adaptive Radix
// Tree) over simulated CXL shared memory, with the five Table 3 bugs
// (#9–#13) behind toggles.
//
// Keys are processed as 8 big-endian bytes. Node layout (CXL memory):
//
//	[0]  node type (1 = N4, 2 = N16, 3 = N48, 4 = N256)
//	[8]  counters word: count(u32) | capUsed(u32)<<32 — count bounds
//	     child search, capUsed is the next append slot (slots are
//	     append-only, modelling N48-style slot allocation)
//	[16] prefix word: len(u8) | up to 7 path-compressed key bytes,
//	     updated with single 8-byte stores so prefix changes are atomic
//	[24] key byte array (N4/N16), a 256-entry slot index (N48), or
//	     nothing (N256); the child pointer array follows, 8-aligned
//
// Child pointers use tag bit 0 to mark leaves; a leaf is a flushed
// {key, val} pair. All structural changes commit with a single flushed
// 8-byte store (child slot append + counters word, or a parent-slot
// swap to a fully-flushed replacement node), so the fixed version needs
// no crash recovery. N16 nodes are deliberately allocated with 16-byte
// alignment — like the original, nothing guarantees the key array and
// the counters share a cache line, which is what bug #12 wrongly
// assumes.
package part

import (
	cxlmc "repro"
	"repro/internal/recipe"
)

// Seeded bugs (Table 3 numbering).
const (
	// BugLeafFlush (#9): newly created leaves (key/value cells) are not
	// flushed before the structure points at them.
	BugLeafFlush recipe.Bug = 1 << iota
	// BugCounterAtomicity (#10): count and capUsed are incremented with
	// two 4-byte stores instead of one 8-byte store, so a crash can
	// persist one without the other and a surviving inserter overwrites
	// or exposes half-initialized slots.
	BugCounterAtomicity
	// BugN4Bounds (#11): child search scans the full key array instead
	// of stopping at count, exposing slots whose key byte persisted but
	// whose child pointer did not.
	BugN4Bounds
	// BugN16KeyFlush (#12): inserting into an N16 flushes the child
	// entry and the counters but assumes the key array shares the
	// counters' cache line; when the node straddles two lines the key
	// byte is lost.
	BugN16KeyFlush
	// BugPrefixAtomicity (#13): a prefix split repoints the parent
	// before truncating the child's prefix (in place) instead of
	// swapping in a fully-flushed clone, so a crash in between leaves a
	// stale prefix reachable.
	BugPrefixAtomicity
)

// Benchmark describes P-ART to the harness. The per-bug key counts are
// the ones the paper reports finding each bug with (§6.1).
var Benchmark = recipe.Benchmark{
	Name: "P-ART",
	New:  func(p *cxlmc.Program, bugs recipe.Bug) recipe.Index { return New(p, bugs) },
	Bugs: []recipe.BugInfo{
		{Bit: BugLeafFlush, Table: 9, Desc: "Missing flush during key creation"},
		{Bit: BugCounterAtomicity, Table: 10, Desc: "Count fields not updated atomically", New: true, Keys: 12},
		{Bit: BugN4Bounds, Table: 11, Desc: "Missing bounds check for N4 children", New: true, Keys: 4},
		{Bit: BugN16KeyFlush, Table: 12, Desc: "Missing flush in N16 insertion", New: true, Keys: 10},
		{Bit: BugPrefixAtomicity, Table: 13, Desc: "Node prefix not updated atomically", New: true, Keys: 16, Stride: 16},
	},
}

// Node types.
const (
	typeN4   = 1
	typeN16  = 2
	typeN48  = 3
	typeN256 = 4
)

const (
	offType     = 0
	offCounters = 8
	offPrefix   = 16
	offKeys     = 24
	leafTag     = 1
)

// fanout returns the child capacity of a node type.
func fanout(typ uint64) int {
	switch typ {
	case typeN4:
		return 4
	case typeN16:
		return 16
	case typeN48:
		return 48
	default:
		return 256
	}
}

// childrenOff returns the offset of the child array. N48 keeps a
// 256-entry byte index (slot+1, 0 = empty) between the header and the
// children, as in the original ART.
func childrenOff(typ uint64) cxlmc.Addr {
	switch typ {
	case typeN4:
		return 32 // 24..27 keys, pad to 32
	case typeN16:
		return 40 // 24..39 keys
	case typeN48:
		return 24 + 256 // byte index at 24..279
	default:
		return 24 // N256 has no key array
	}
}

// n48IndexOff is the offset of N48's 256-entry byte index.
const n48IndexOff = cxlmc.Addr(24)

// nodeSize returns the allocation size of a node type.
func nodeSize(typ uint64) uint64 {
	return uint64(childrenOff(typ)) + uint64(fanout(typ))*8
}

// ART is one tree instance.
type ART struct {
	mu   *cxlmc.Mutex
	meta cxlmc.Addr // [0] root node
	bugs recipe.Bug
}

// New lays out a tree (no simulated stores; see Init).
func New(p *cxlmc.Program, bugs recipe.Bug) *ART {
	return &ART{mu: p.NewMutex("part"), meta: p.AllocAligned(64, 64), bugs: bugs}
}

// keyByte returns big-endian byte d of key.
func keyByte(key uint64, d int) uint8 { return uint8(key >> (8 * (7 - d))) }

// packPrefix packs a path-compression prefix: key bytes [from, from+n)
// into one word with the length in the low byte.
func packPrefix(key uint64, from, n int) uint64 {
	w := uint64(n)
	for i := 0; i < n; i++ {
		w |= uint64(keyByte(key, from+i)) << (8 * (i + 1))
	}
	return w
}

func prefixLen(w uint64) int           { return int(w & 0xFF) }
func prefixByte(w uint64, i int) uint8 { return uint8(w >> (8 * (i + 1))) }

// newNode allocates and initializes a node, flushing it fully. N16 nodes
// use 16-byte alignment: nothing in the original code guarantees they
// fit in one cache line (bug #12's hazard).
func (a *ART) newNode(t *cxlmc.Thread, typ uint64, prefix uint64) cxlmc.Addr {
	align := uint64(64)
	if typ == typeN16 {
		align = 16
	}
	n := t.AllocAligned(nodeSize(typ), align)
	t.Store64(n+offType, typ)
	t.Store64(n+offCounters, 0)
	t.Store64(n+offPrefix, prefix)
	a.flushRange(t, n, 24)
	return n
}

// flushRange flushes every cache line of [base, base+size).
func (a *ART) flushRange(t *cxlmc.Thread, base cxlmc.Addr, size uint64) {
	first := base / 64 * 64
	for ln := first; ln < base+cxlmc.Addr(size); ln += 64 {
		t.CLFlushOpt(ln)
	}
	t.SFence()
}

// newLeaf creates a {key, val} leaf; flushing it is what bug #9 omits.
func (a *ART) newLeaf(t *cxlmc.Thread, key, val uint64) cxlmc.Addr {
	l := t.AllocAligned(16, 16)
	t.Store64(l, key)
	t.Store64(l+8, val)
	if !a.bugs.Has(BugLeafFlush) {
		a.flushRange(t, l, 16)
	}
	return l
}

// Init runs the constructor: an empty N256 root (as in the original ART)
// published through the meta word.
func (a *ART) Init(t *cxlmc.Thread) {
	root := a.newNode(t, typeN256, 0)
	t.Store64(a.meta, uint64(root))
	t.CLFlush(a.meta)
	t.SFence()
}

// counters splits the counters word.
func counters(w uint64) (count, capUsed int) {
	return int(uint32(w)), int(uint32(w >> 32))
}

// findChild returns the address of the child slot for byte b, or 0. The
// fixed version bounds the key scan by count; bug #11 scans the whole
// array, exposing uncommitted slots.
func (a *ART) findChild(t *cxlmc.Thread, n cxlmc.Addr, typ uint64, b uint8) cxlmc.Addr {
	if typ == typeN256 {
		slot := n + childrenOff(typ) + cxlmc.Addr(b)*8
		if t.Load64(slot) == 0 {
			return 0
		}
		return slot
	}
	if typ == typeN48 {
		idx := t.Load8(n + n48IndexOff + cxlmc.Addr(b))
		if idx == 0 {
			return 0
		}
		slot := n + childrenOff(typ) + cxlmc.Addr(idx-1)*8
		if t.Load64(slot) == 0 {
			return 0
		}
		return slot
	}
	limit, _ := counters(t.Load64(n + offCounters))
	if a.bugs.Has(BugN4Bounds) && typ == typeN4 {
		limit = fanout(typ)
	}
	if limit > fanout(typ) {
		limit = fanout(typ)
	}
	for i := 0; i < limit; i++ {
		if t.Load8(n+offKeys+cxlmc.Addr(i)) == b {
			return n + childrenOff(typ) + cxlmc.Addr(i)*8
		}
	}
	return 0
}

// addChild appends a child entry: key byte, then pointer, then the
// flushed counters commit. Returns false when the node is full.
func (a *ART) addChild(t *cxlmc.Thread, n cxlmc.Addr, typ uint64, b uint8, child uint64) bool {
	cw := t.Load64(n + offCounters)
	count, capUsed := counters(cw)
	if typ == typeN256 {
		slot := n + childrenOff(typ) + cxlmc.Addr(b)*8
		t.Store64(slot, child)
		t.CLFlush(slot)
		t.SFence()
		return true
	}
	if capUsed >= fanout(typ) {
		return false
	}
	if typ == typeN48 {
		// Child first (flushed), then the index byte (flushed), then the
		// counters commit: the index byte's visibility gates the entry.
		slot := n + childrenOff(typ) + cxlmc.Addr(capUsed)*8
		t.Store64(slot, child)
		t.CLFlushOpt(slot)
		idxAddr := n + n48IndexOff + cxlmc.Addr(b)
		t.Store8(idxAddr, uint8(capUsed+1))
		t.CLFlushOpt(idxAddr)
		t.SFence()
		if a.bugs.Has(BugCounterAtomicity) {
			t.Store32(n+offCounters+4, uint32(capUsed+1))
			t.Store32(n+offCounters, uint32(count+1))
		} else {
			t.Store64(n+offCounters, uint64(count+1)|uint64(capUsed+1)<<32)
		}
		t.CLFlush(n + offCounters)
		t.SFence()
		return true
	}
	keyAddr := n + offKeys + cxlmc.Addr(capUsed)
	slot := n + childrenOff(typ) + cxlmc.Addr(capUsed)*8
	t.Store8(keyAddr, b)
	t.Store64(slot, child)
	// Flush the entry: the child slot's line always, and the key array's
	// line — unless bug #12 wrongly assumes the key byte shares the
	// counters' line (false when an N16 straddles two lines).
	t.CLFlushOpt(slot)
	if !(a.bugs.Has(BugN16KeyFlush) && typ == typeN16) {
		t.CLFlushOpt(keyAddr)
	}
	t.SFence()
	// Commit: counters word. The fixed version updates both halves with
	// one atomic store; bug #10 issues two 4-byte stores, so a crash can
	// persist the new capUsed without the new count — after which every
	// later insert through this node lands at an index the count never
	// reaches, making committed keys invisible.
	if a.bugs.Has(BugCounterAtomicity) {
		t.Store32(n+offCounters+4, uint32(capUsed+1))
		t.Store32(n+offCounters, uint32(count+1))
	} else {
		t.Store64(n+offCounters, uint64(count+1)|uint64(capUsed+1)<<32)
	}
	t.CLFlush(n + offCounters)
	t.SFence()
	return true
}

// grow replaces a full node with the next-larger type: build a flushed
// clone, then swap the parent slot with one flushed store.
func (a *ART) grow(t *cxlmc.Thread, n cxlmc.Addr, typ uint64, parentSlot cxlmc.Addr) cxlmc.Addr {
	bigger := typ + 1
	nn := a.newNode(t, bigger, t.Load64(n+offPrefix))
	cw := t.Load64(n + offCounters)
	_, capUsed := counters(cw)
	live := 0
	copyEntry := func(b uint8, child uint64) {
		switch bigger {
		case typeN256:
			t.Store64(nn+childrenOff(bigger)+cxlmc.Addr(b)*8, child)
		case typeN48:
			t.Store64(nn+childrenOff(bigger)+cxlmc.Addr(live)*8, child)
			t.Store8(nn+n48IndexOff+cxlmc.Addr(b), uint8(live+1))
		default:
			t.Store8(nn+offKeys+cxlmc.Addr(live), b)
			t.Store64(nn+childrenOff(bigger)+cxlmc.Addr(live)*8, child)
		}
		live++
	}
	if typ == typeN48 {
		for b := 0; b < 256; b++ {
			idx := t.Load8(n + n48IndexOff + cxlmc.Addr(b))
			if idx == 0 {
				continue
			}
			child := t.Load64(n + childrenOff(typ) + cxlmc.Addr(idx-1)*8)
			if child != 0 {
				copyEntry(uint8(b), child)
			}
		}
	} else {
		for i := 0; i < capUsed; i++ {
			b := t.Load8(n + offKeys + cxlmc.Addr(i))
			child := t.Load64(n + childrenOff(typ) + cxlmc.Addr(i)*8)
			copyEntry(b, child)
		}
	}
	t.Store64(nn+offCounters, uint64(live)|uint64(live)<<32)
	a.flushRange(t, nn, nodeSize(bigger))
	t.Store64(parentSlot, uint64(nn))
	t.CLFlush(parentSlot)
	t.SFence()
	return nn
}

// Insert adds key→val.
func (a *ART) Insert(t *cxlmc.Thread, key, val uint64) {
	a.mu.Lock(t)
	defer a.mu.Unlock(t)
	leaf := uint64(a.newLeaf(t, key, val)) | leafTag

	parentSlot := a.meta
	n := cxlmc.Addr(t.Load64(a.meta))
	depth := 0
	for {
		typ := t.Load64(n + offType)
		pw := t.Load64(n + offPrefix)
		plen := prefixLen(pw)
		mismatch := -1
		for i := 0; i < plen; i++ {
			if keyByte(key, depth+i) != prefixByte(pw, i) {
				mismatch = i
				break
			}
		}
		if mismatch >= 0 {
			a.splitPrefix(t, n, parentSlot, pw, mismatch, key, depth, leaf)
			return
		}
		depth += plen
		b := keyByte(key, depth)
		slot := a.findChild(t, n, typ, b)
		if slot == 0 {
			if !a.addChild(t, n, typ, b, leaf) {
				// Full: replace with the next-larger node type, which is
				// guaranteed to have room.
				n = a.grow(t, n, typ, parentSlot)
				a.addChild(t, n, typ+1, b, leaf)
			}
			return
		}
		child := t.Load64(slot)
		if child&leafTag != 0 {
			a.splitLeaf(t, slot, child, key, depth, leaf)
			return
		}
		parentSlot = slot
		n = cxlmc.Addr(child)
		depth++
	}
}

// splitLeaf replaces an existing leaf with an inner N4 holding both
// leaves, its prefix covering their common bytes below depth.
func (a *ART) splitLeaf(t *cxlmc.Thread, slot cxlmc.Addr, oldLeaf uint64, key uint64, depth int, newLeaf uint64) {
	oldKey := t.Load64(cxlmc.Addr(oldLeaf &^ leafTag))
	if oldKey == key {
		// Update in place: the value cell commit is a flushed store.
		cell := cxlmc.Addr(newLeaf&^leafTag) + 8
		v := t.Load64(cell)
		old := cxlmc.Addr(oldLeaf&^leafTag) + 8
		t.Store64(old, v)
		t.CLFlush(old)
		t.SFence()
		return
	}
	// Common bytes strictly below depth+1 (the byte at depth was shared
	// to route here).
	d := depth + 1
	common := 0
	for d+common < 8 && keyByte(oldKey, d+common) == keyByte(key, d+common) {
		common++
	}
	n4 := a.newNode(t, typeN4, packPrefix(key, d, common))
	a.addChild(t, n4, typeN4, keyByte(oldKey, d+common), oldLeaf)
	a.addChild(t, n4, typeN4, keyByte(key, d+common), newLeaf)
	a.flushRange(t, n4, nodeSize(typeN4))
	t.Store64(slot, uint64(n4))
	t.CLFlush(slot)
	t.SFence()
}

// splitPrefix handles a path-compression mismatch at prefix byte i: a
// new N4 takes the common part, with the old node (its prefix truncated)
// and the new leaf as children.
//
// Fixed: the old node is cloned with the truncated prefix, the new N4 is
// fully flushed, and the single parent-slot store commits everything.
// Bug #13: the parent is repointed first and the old node's prefix is
// truncated in place afterwards, so a crash in between leaves the stale
// full prefix reachable below the new N4.
func (a *ART) splitPrefix(t *cxlmc.Thread, n, parentSlot cxlmc.Addr, pw uint64, i int, key uint64, depth int, leaf uint64) {
	plen := prefixLen(pw)
	// The truncated prefix drops the consumed i bytes plus the routing
	// byte at position i.
	trunc := uint64(plen - i - 1)
	for j := i + 1; j < plen; j++ {
		trunc |= uint64(prefixByte(pw, j)) << (8 * (j - i))
	}
	commonW := uint64(i)
	for j := 0; j < i; j++ {
		commonW |= uint64(prefixByte(pw, j)) << (8 * (j + 1))
	}

	if a.bugs.Has(BugPrefixAtomicity) {
		// Buggy in-place update: the truncated prefix is stored but
		// never flushed, while the parent swap is. The durable prefix
		// update can therefore land after the parent already points at
		// the split nodes — lose the cached truncation and readers
		// descend through the stale full prefix.
		n4 := a.newNode(t, typeN4, commonW)
		a.addChild(t, n4, typeN4, prefixByte(pw, i), uint64(n))
		a.addChild(t, n4, typeN4, keyByte(key, depth+i), leaf)
		a.flushRange(t, n4, nodeSize(typeN4))
		t.Store64(n+offPrefix, trunc) // missing flush
		t.Store64(parentSlot, uint64(n4))
		t.CLFlush(parentSlot)
		t.SFence()
		return
	}

	// Fixed: clone the old node with the truncated prefix; the parent
	// swap is the only mutation of reachable state.
	typ := t.Load64(n + offType)
	clone := a.newNode(t, typ, trunc)
	cw := t.Load64(n + offCounters)
	_, capUsed := counters(cw)
	switch typ {
	case typeN256:
		for b := 0; b < 256; b++ {
			c := t.Load64(n + childrenOff(typ) + cxlmc.Addr(b)*8)
			if c != 0 {
				t.Store64(clone+childrenOff(typ)+cxlmc.Addr(b)*8, c)
			}
		}
	case typeN48:
		for b := 0; b < 256; b++ {
			t.Store8(clone+n48IndexOff+cxlmc.Addr(b), t.Load8(n+n48IndexOff+cxlmc.Addr(b)))
		}
		for j := 0; j < capUsed; j++ {
			t.Store64(clone+childrenOff(typ)+cxlmc.Addr(j)*8, t.Load64(n+childrenOff(typ)+cxlmc.Addr(j)*8))
		}
	default:
		for j := 0; j < capUsed; j++ {
			t.Store8(clone+offKeys+cxlmc.Addr(j), t.Load8(n+offKeys+cxlmc.Addr(j)))
			t.Store64(clone+childrenOff(typ)+cxlmc.Addr(j)*8, t.Load64(n+childrenOff(typ)+cxlmc.Addr(j)*8))
		}
	}
	t.Store64(clone+offCounters, cw)
	a.flushRange(t, clone, nodeSize(typ))

	n4 := a.newNode(t, typeN4, commonW)
	a.addChild(t, n4, typeN4, prefixByte(pw, i), uint64(clone))
	a.addChild(t, n4, typeN4, keyByte(key, depth+i), leaf)
	a.flushRange(t, n4, nodeSize(typeN4))
	t.Store64(parentSlot, uint64(n4))
	t.CLFlush(parentSlot)
	t.SFence()
}

// Lookup returns the value for key. Lookups are lock free.
func (a *ART) Lookup(t *cxlmc.Thread, key uint64) (uint64, bool) {
	n := cxlmc.Addr(t.Load64(a.meta))
	depth := 0
	for {
		typ := t.Load64(n + offType)
		pw := t.Load64(n + offPrefix)
		plen := prefixLen(pw)
		for i := 0; i < plen; i++ {
			if depth+i >= 8 || keyByte(key, depth+i) != prefixByte(pw, i) {
				return 0, false
			}
		}
		depth += plen
		if depth >= 8 {
			return 0, false
		}
		slot := a.findChild(t, n, typ, keyByte(key, depth))
		if slot == 0 {
			return 0, false
		}
		child := t.Load64(slot)
		if child&leafTag != 0 {
			l := cxlmc.Addr(child &^ leafTag)
			if t.Load64(l) == key {
				return t.Load64(l + 8), true
			}
			return 0, false
		}
		n = cxlmc.Addr(child)
		depth++
	}
}

// Delete removes key by tombstoning its leaf: one flushed atomic store of
// the leaf's key word, after which lookups mismatch and report absence.
// (The original compacts child arrays; the tombstone models the
// crash-atomic commit of its removal.)
func (a *ART) Delete(t *cxlmc.Thread, key uint64) bool {
	a.mu.Lock(t)
	defer a.mu.Unlock(t)
	n := cxlmc.Addr(t.Load64(a.meta))
	depth := 0
	for {
		typ := t.Load64(n + offType)
		pw := t.Load64(n + offPrefix)
		plen := prefixLen(pw)
		for i := 0; i < plen; i++ {
			if depth+i >= 8 || keyByte(key, depth+i) != prefixByte(pw, i) {
				return false
			}
		}
		depth += plen
		if depth >= 8 {
			return false
		}
		slot := a.findChild(t, n, typ, keyByte(key, depth))
		if slot == 0 {
			return false
		}
		child := t.Load64(slot)
		if child&leafTag != 0 {
			l := cxlmc.Addr(child &^ leafTag)
			if t.Load64(l) != key {
				return false
			}
			t.Store64(l, 0)
			t.CLFlush(l)
			t.SFence()
			return true
		}
		n = cxlmc.Addr(child)
		depth++
	}
}

// Scan returns all live leaves in key order (depth-first over the radix
// structure; ART's big-endian byte paths make that key order).
func (a *ART) Scan(t *cxlmc.Thread) ([]uint64, []uint64) {
	s := scan{t: t}
	s.ks, s.vs = recipe.ScanSlices()
	s.walk(cxlmc.Addr(t.Load64(a.meta)))
	return s.ks, s.vs
}

// scan is one Scan's walk: the thread it reads on and what it has found.
type scan struct {
	t      *cxlmc.Thread
	ks, vs []uint64
}

func (s *scan) walk(n cxlmc.Addr) {
	t := s.t
	typ := t.Load64(n + offType)
	switch typ {
	case typeN256:
		for b := 0; b < 256; b++ {
			s.visit(t.Load64(n + childrenOff(typ) + cxlmc.Addr(b)*8))
		}
	case typeN48:
		for b := 0; b < 256; b++ {
			idx := t.Load8(n + n48IndexOff + cxlmc.Addr(b))
			if idx == 0 {
				continue
			}
			s.visit(t.Load64(n + childrenOff(typ) + cxlmc.Addr(idx-1)*8))
		}
	default:
		// N4/N16 keys are append-ordered, not sorted: collect the
		// (byte, slot) pairs and visit in byte order.
		limit, _ := counters(t.Load64(n + offCounters))
		if limit > fanout(typ) {
			limit = fanout(typ)
		}
		type ent struct {
			b    uint8
			slot int
		}
		var buf [16]ent // an N16's; a corrupt type word's 256 spill to the heap
		ents := buf[:0]
		for i := 0; i < limit; i++ {
			ents = append(ents, ent{t.Load8(n + offKeys + cxlmc.Addr(i)), i})
		}
		for i := 1; i < len(ents); i++ {
			for j := i; j > 0 && ents[j-1].b > ents[j].b; j-- {
				ents[j-1], ents[j] = ents[j], ents[j-1]
			}
		}
		for _, e := range ents {
			s.visit(t.Load64(n + childrenOff(typ) + cxlmc.Addr(e.slot)*8))
		}
	}
}

func (s *scan) visit(child uint64) {
	if child == 0 {
		return
	}
	if child&leafTag != 0 {
		l := cxlmc.Addr(child &^ leafTag)
		k := s.t.Load64(l)
		if k != 0 { // tombstoned leaves are deleted
			s.ks = append(s.ks, k)
			s.vs = append(s.vs, s.t.Load64(l+8))
		}
		return
	}
	s.walk(cxlmc.Addr(child))
}
