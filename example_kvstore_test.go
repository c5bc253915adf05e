package cxlmc_test

// A key-value store on CXL shared memory that survives partial failures,
// demonstrating the failure-aware mutex API (paper §5): when a machine dies
// holding the store's lock, the next owner learns about it and replays the
// store's intent journal before trusting the data.
//
// Each entry keeps a value and a checksum on different cache lines, so an
// update is inherently non-atomic: value and checksum can persist
// independently when the writer's machine dies mid-update. A flushed intent
// journal plus lock-API recovery makes updates failure atomic; ignoring the
// owner-failed signal (the "no recovery" variant) lets the checker expose
// the broken invariant.

import (
	"fmt"

	cxlmc "repro"
)

const tableSlots = 4

// kvStore layout: a journal line, a key line, a value line and a checksum
// line. The invariant is sum[i] == val[i]+1 for every present key.
type kvStore struct {
	mu      *cxlmc.Mutex
	journal cxlmc.Addr // [0] state (1 = pending), [8] key, [16] val
	keys    cxlmc.Addr
	vals    cxlmc.Addr
	sums    cxlmc.Addr
}

func newKVStore(p *cxlmc.Program) *kvStore {
	return &kvStore{
		mu:      p.NewMutex("kv"),
		journal: p.AllocAligned(64, 64),
		keys:    p.AllocAligned(tableSlots*8, 64),
		vals:    p.AllocAligned(tableSlots*8, 64),
		sums:    p.AllocAligned(tableSlots*8, 64),
	}
}

func kvSlot(key uint64) cxlmc.Addr { return cxlmc.Addr(key % tableSlots * 8) }

// put journals the update, applies it, and clears the journal.
func (s *kvStore) put(t *cxlmc.Thread, key, val uint64, useRecovery bool) {
	ownerFailed := s.mu.Lock(t)
	defer s.mu.Unlock(t)
	if ownerFailed && useRecovery {
		s.recover(t)
	}

	t.Store64(s.journal+8, key)
	t.Store64(s.journal+16, val)
	t.Store64(s.journal, 1)
	t.CLFlush(s.journal)
	t.SFence()

	s.apply(t, key, val)

	t.Store64(s.journal, 0)
	t.CLFlush(s.journal)
	t.SFence()
}

// apply writes the multi-line entry with flushes. Value and checksum
// live on different lines: without the journal, a crash in between
// persists one and loses the other.
func (s *kvStore) apply(t *cxlmc.Thread, key, val uint64) {
	t.Store64(s.vals+kvSlot(key), val)
	t.CLFlush(s.vals + kvSlot(key))
	t.SFence()
	t.Store64(s.sums+kvSlot(key), val+1)
	t.CLFlush(s.sums + kvSlot(key))
	t.SFence()
	t.Store64(s.keys+kvSlot(key), key)
	t.CLFlush(s.keys + kvSlot(key))
	t.SFence()
}

// recover replays a pending journaled update left by a failed owner.
func (s *kvStore) recover(t *cxlmc.Thread) {
	if t.Load64(s.journal) != 1 {
		return
	}
	s.apply(t, t.Load64(s.journal+8), t.Load64(s.journal+16))
	t.Store64(s.journal, 0)
	t.CLFlush(s.journal)
	t.SFence()
}

// get returns the value for key if present, checking the checksum
// invariant.
func (s *kvStore) get(t *cxlmc.Thread, key uint64, useRecovery bool) (uint64, bool) {
	ownerFailed := s.mu.Lock(t)
	defer s.mu.Unlock(t)
	if ownerFailed && useRecovery {
		s.recover(t)
	}
	if t.Load64(s.keys+kvSlot(key)) != key {
		return 0, false
	}
	val := t.Load64(s.vals + kvSlot(key))
	sum := t.Load64(s.sums + kvSlot(key))
	t.Assert(sum == val+1, "key %d: torn entry (val %d, checksum %d) — crashed update exposed", key, val, sum)
	return val, true
}

func kvProgram(useRecovery bool) func(*cxlmc.Program) {
	return func(p *cxlmc.Program) {
		s := newKVStore(p)
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		a.Thread("writer", func(t *cxlmc.Thread) {
			s.put(t, 1, 100, useRecovery)
			s.put(t, 1, 111, useRecovery) // the update that can tear
		})
		b.Thread("reader", func(t *cxlmc.Thread) {
			t.Join(a)
			if v, ok := s.get(t, 1, useRecovery); ok {
				t.Assert(v == 100 || v == 111, "key 1: impossible value %d", v)
			}
		})
	}
}

// Example_kvstore checks the store with and without lock-API recovery.
func Example_kvstore() {
	for _, useRecovery := range []bool{true, false} {
		// One worker: a run that stops at its first bug stops at the same
		// execution on any number of cores.
		res, err := cxlmc.Run(cxlmc.Config{Workers: 1}, kvProgram(useRecovery))
		if err != nil {
			panic(err)
		}
		fmt.Printf("useRecovery=%-5v %5d executions, %3d failure points\n",
			useRecovery, res.Executions, res.FailurePoints)
		if res.Buggy() {
			for _, bug := range res.Bugs {
				fmt.Printf("  found: %s\n", bug)
			}
		} else {
			fmt.Println("  lock-API recovery keeps every partial-failure execution consistent")
		}
	}
	// Output:
	// useRecovery=true     15 executions,  10 failure points
	//   lock-API recovery keeps every partial-failure execution consistent
	// useRecovery=false     6 executions,  10 failure points
	//   found: [assertion] key 1: torn entry (val 111, checksum 101) — crashed update exposed (execution 6, machine "B", thread "reader")
}
