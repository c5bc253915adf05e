// Package cxlshm reimplements the benchmarks CXLMC took from CXL-SHM
// (Zhang et al., SOSP 2023) — a partial-failure resilient memory
// management system for CXL-based distributed shared memory — with the
// two Table 4 bugs behind toggles.
//
// The model: a shared page pool whose per-page metadata (owner machine,
// object size, allocation/free counters) lives in CXL memory. Machines
// acquire pages, bump-allocate objects out of them, and free them; when
// a machine fails, a failure monitor / recovery procedure on a surviving
// machine garbage-collects the failed machine's pages and a
// recovery-check verifies that nothing allocated by the failed machine
// leaks.
//
// Both paper bugs are partial-failure logic bugs — they need no cache
// loss at all, which is why the paper still finds them in GPF mode
// (§6.2):
//
//   - kv (Table 4 #1): the recovery procedure cannot garbage-collect a
//     crashed kv program because recovery for kv data is unimplemented
//     (the original code comments cite an ABA problem), so the
//     recovery check finds unfreed memory.
//   - test_stress (Table 4 #2): the monitor loop zeroes a page-metadata
//     struct in the later part of an iteration and uses a field of that
//     struct as a divisor in the next iteration — dividing by zero.
package cxlshm

import (
	cxlmc "repro"
)

// Bug is a bitmask of seeded bugs.
type Bug uint32

// Seeded bugs (Table 4 numbering).
const (
	// BugKVUnimplementedFree (#1): recovery skips garbage-collecting kv
	// data pages of the failed machine.
	BugKVUnimplementedFree Bug = 1 << iota
	// BugStaleMetaDivide (#2): the monitor computes a page's object
	// count from the previous iteration's metadata struct, which the
	// previous iteration may just have zeroed.
	BugStaleMetaDivide
)

// Has reports whether bug b is enabled.
func (bugs Bug) Has(b Bug) bool { return bugs&b != 0 }

// Pool geometry.
const (
	NumPages = 4
	PageSize = 256
	// Page metadata layout (one line per page).
	offOwner   = 0 // owning machine + 1; 0 = free
	offObjSize = 8
	offAlloc   = 16 // objects allocated
	offFree    = 24 // objects freed
)

// Pool is the shared page pool.
type Pool struct {
	mu    *cxlmc.Mutex
	meta  cxlmc.Addr // NumPages metadata lines
	pages cxlmc.Addr // NumPages * PageSize payload
	bugs  Bug
}

// NewPool lays out the pool (no simulated stores; see Init).
func NewPool(p *cxlmc.Program, bugs Bug) *Pool {
	return &Pool{
		mu:    p.NewMutex("cxlshm"),
		meta:  p.AllocAligned(NumPages*64, 64),
		pages: p.AllocAligned(NumPages*PageSize, 64),
		bugs:  bugs,
	}
}

// metaAddr returns page i's metadata line.
func (pl *Pool) metaAddr(i int) cxlmc.Addr { return pl.meta + cxlmc.Addr(i*64) }

// pageAddr returns page i's payload base.
func (pl *Pool) pageAddr(i int) cxlmc.Addr { return pl.pages + cxlmc.Addr(i*PageSize) }

// Init initializes and flushes the pool metadata (all pages free).
func (pl *Pool) Init(t *cxlmc.Thread) {
	for i := 0; i < NumPages; i++ {
		m := pl.metaAddr(i)
		t.Store64(m+offOwner, 0)
		t.CLFlushOpt(m)
	}
	t.SFence()
}

// Acquire grabs a free page for machine mach with the given object size,
// committing the flushed metadata before returning the page index.
func (pl *Pool) Acquire(t *cxlmc.Thread, mach cxlmc.MachineID, objSize uint64) int {
	pl.mu.Lock(t)
	defer pl.mu.Unlock(t)
	for i := 0; i < NumPages; i++ {
		m := pl.metaAddr(i)
		if t.Load64(m+offOwner) != 0 {
			continue
		}
		t.Store64(m+offObjSize, objSize)
		t.Store64(m+offAlloc, 0)
		t.Store64(m+offFree, 0)
		t.CLFlush(m)
		t.SFence()
		t.Store64(m+offOwner, uint64(mach)+1)
		t.CLFlush(m)
		t.SFence()
		return i
	}
	t.Fail("cxlshm: page pool exhausted")
	return -1
}

// AllocObj bump-allocates one object from page i, with a flushed
// counter update so allocations survive the allocator's failure.
func (pl *Pool) AllocObj(t *cxlmc.Thread, i int) cxlmc.Addr {
	m := pl.metaAddr(i)
	objSize := t.Load64(m + offObjSize)
	n := t.Load64(m + offAlloc)
	if (n+1)*objSize > PageSize {
		t.Fail("cxlshm: page %d exhausted", i)
	}
	t.Store64(m+offAlloc, n+1)
	t.CLFlush(m)
	t.SFence()
	return pl.pageAddr(i) + cxlmc.Addr(n*objSize)
}

// FreeObj records one freed object on page i.
func (pl *Pool) FreeObj(t *cxlmc.Thread, i int) {
	m := pl.metaAddr(i)
	t.Store64(m+offFree, t.Load64(m+offFree)+1)
	t.CLFlush(m)
	t.SFence()
}

// Release returns a fully-freed page to the pool, zeroing its metadata.
func (pl *Pool) Release(t *cxlmc.Thread, i int) {
	m := pl.metaAddr(i)
	t.Store64(m+offOwner, 0)
	t.Store64(m+offObjSize, 0)
	t.Store64(m+offAlloc, 0)
	t.Store64(m+offFree, 0)
	t.CLFlush(m)
	t.SFence()
}

// Monitor is the failure monitor's reclamation pass over the page pool
// after machine failed died: every page the failed machine owned is
// scanned (object count = page size / object size) and reclaimed.
//
// Bug #2: the divisor is read through the metadata pointer carried over
// from the previous loop iteration — which the previous iteration may
// just have zeroed during reclamation.
func (pl *Pool) Monitor(t *cxlmc.Thread, failed cxlmc.MachineID) {
	pl.mu.Lock(t)
	defer pl.mu.Unlock(t)
	m := pl.metaAddr(0) // carried across iterations (the bug's seed)
	for i := 0; i < NumPages; i++ {
		cur := pl.metaAddr(i)
		owner := t.Load64(cur + offOwner)
		if owner == uint64(failed)+1 {
			divisor := cur + offObjSize
			if pl.bugs.Has(BugStaleMetaDivide) {
				divisor = m + offObjSize
			}
			objs := PageSize / t.Load64(divisor) // panics on a zeroed struct
			allocated := t.Load64(cur + offAlloc)
			if allocated > objs {
				t.Fail("cxlshm: page %d over-allocated (%d/%d)", i, allocated, objs)
			}
			// Later part of the iteration: reclaim, zeroing the struct.
			pl.Release(t, i)
		}
		m = cur
	}
}

// KV is the kv benchmark: a fixed table of flushed object pointers whose
// objects come from the pool.
type KV struct {
	pool  *Pool
	table cxlmc.Addr
	slots int
}

// NewKV lays out a kv store with the given number of slots.
func NewKV(p *cxlmc.Program, pool *Pool, slots int) *KV {
	return &KV{pool: pool, table: p.AllocAligned(uint64(slots)*8, 64), slots: slots}
}

// Init flushes the empty table.
func (kv *KV) Init(t *cxlmc.Thread) {
	for off := cxlmc.Addr(0); off < cxlmc.Addr(kv.slots*8); off += 64 {
		t.CLFlushOpt(kv.table + off)
	}
	t.SFence()
}

// Put stores key→val in a fresh object from page and commits the table
// slot with a flushed store.
func (kv *KV) Put(t *cxlmc.Thread, page int, key, val uint64) {
	obj := kv.pool.AllocObj(t, page)
	t.Store64(obj, key)
	t.Store64(obj+8, val)
	t.CLFlush(obj)
	t.SFence()
	slot := kv.table + cxlmc.Addr(int(key)%kv.slots*8)
	t.Store64(slot, uint64(obj))
	t.CLFlush(slot)
	t.SFence()
}

// Get returns the value for key.
func (kv *KV) Get(t *cxlmc.Thread, key uint64) (uint64, bool) {
	obj := cxlmc.Addr(t.Load64(kv.table + cxlmc.Addr(int(key)%kv.slots*8)))
	if obj == 0 {
		return 0, false
	}
	if t.Load64(obj) != key {
		return 0, false
	}
	return t.Load64(obj + 8), true
}

// Recover garbage-collects the failed machine's pages: kv objects still
// referenced from the table are unlinked and freed, and fully-freed
// pages return to the pool. Bug #1 leaves kv data pages untouched —
// "recovery for kv data is yet to be implemented due to an ABA problem".
func (kv *KV) Recover(t *cxlmc.Thread, failed cxlmc.MachineID) {
	pl := kv.pool
	pl.mu.Lock(t)
	defer pl.mu.Unlock(t)
	for i := 0; i < NumPages; i++ {
		m := pl.metaAddr(i)
		if t.Load64(m+offOwner) != uint64(failed)+1 {
			continue
		}
		if pl.bugs.Has(BugKVUnimplementedFree) {
			continue // TODO(upstream): ABA problem — kv GC unimplemented
		}
		// Unlink and free every table-referenced object in this page.
		lo := pl.pageAddr(i)
		hi := lo + PageSize
		for s := 0; s < kv.slots; s++ {
			slot := kv.table + cxlmc.Addr(s*8)
			obj := cxlmc.Addr(t.Load64(slot))
			if obj >= lo && obj < hi {
				t.Store64(slot, 0)
				t.CLFlush(slot)
				t.SFence()
				pl.FreeObj(t, i)
			}
		}
		// Unreachable allocations (orphans of crashed Puts) are freed
		// wholesale: nothing can refer to them.
		allocated := t.Load64(m + offAlloc)
		freed := t.Load64(m + offFree)
		if freed < allocated {
			t.Store64(m+offFree, allocated)
			t.CLFlush(m)
			t.SFence()
		}
		pl.Release(t, i)
	}
}

// RecoveryCheck asserts that the failed machine holds no memory: every
// page it owned must have been garbage-collected and returned to the
// pool. This is the paper's recovery_check program.
func (kv *KV) RecoveryCheck(t *cxlmc.Thread, failed cxlmc.MachineID) {
	pl := kv.pool
	for i := 0; i < NumPages; i++ {
		m := pl.metaAddr(i)
		owner := t.Load64(m + offOwner)
		// The message's loads are simulated events: they run whether or
		// not the page is still owned.
		alloc, free := t.Load64(m+offAlloc), t.Load64(m+offFree)
		if owner == uint64(failed)+1 {
			t.Fail("cxlshm: unfreed memory: page %d still owned by failed machine (alloc=%d free=%d)",
				i, alloc, free)
		}
	}
}

// BugCase describes one Table 4 row for the harness.
type BugCase struct {
	Name    string
	Desc    string
	New     bool
	Bit     Bug
	Program func(bugs Bug) func(*cxlmc.Program)
}

// Cases lists the Table 4 benchmarks.
var Cases = []BugCase{
	{Name: "kv", Desc: "Unimplemented free procedure", New: true, Bit: BugKVUnimplementedFree, Program: KVProgram},
	{Name: "test_stress", Desc: "Divide-by-zero error", New: true, Bit: BugStaleMetaDivide, Program: StressProgram},
}

// KVProgram builds the kv + recovery_check benchmark: one machine runs
// the kv workload while the other recovers after its failure and checks
// for leaks.
func KVProgram(bugs Bug) func(*cxlmc.Program) {
	return func(p *cxlmc.Program) {
		pool := NewPool(p, bugs)
		kv := NewKV(p, pool, 4)
		a := p.NewMachine("kv")
		b := p.NewMachine("checker")
		a.Thread("kv", func(t *cxlmc.Thread) {
			pool.Init(t)
			kv.Init(t)
			page := pool.Acquire(t, a.ID(), 16)
			for k := uint64(1); k <= 4; k++ {
				kv.Put(t, page, k, k*100)
			}
		})
		b.Thread("recovery_check", func(t *cxlmc.Thread) {
			if !t.Join(a) {
				return // no failure: nothing to recover
			}
			kv.Recover(t, a.ID())
			kv.RecoveryCheck(t, a.ID())
		})
	}
}

// StressProgram builds the test_stress + monitor benchmark: one machine
// stresses the allocator while the other runs the failure monitor.
func StressProgram(bugs Bug) func(*cxlmc.Program) {
	return func(p *cxlmc.Program) {
		pool := NewPool(p, bugs)
		a := p.NewMachine("stress")
		b := p.NewMachine("monitor")
		a.Thread("stress", func(t *cxlmc.Thread) {
			pool.Init(t)
			for round := 0; round < 2; round++ {
				pg := pool.Acquire(t, a.ID(), 32)
				for j := 0; j < 3; j++ {
					obj := pool.AllocObj(t, pg)
					t.Store64(obj, uint64(j)+1)
					t.CLFlush(obj)
					t.SFence()
				}
				// Keep the page owned: the monitor reclaims it if we die.
			}
		})
		b.Thread("monitor", func(t *cxlmc.Thread) {
			if !t.Join(a) {
				return
			}
			pool.Monitor(t, a.ID())
			// After a full monitor pass nothing of the failed machine
			// may remain.
			for i := 0; i < NumPages; i++ {
				owner := t.Load64(pool.metaAddr(i) + offOwner)
				if owner == uint64(a.ID())+1 {
					t.Fail("cxlshm: page %d not reclaimed", i)
				}
			}
		})
	}
}
