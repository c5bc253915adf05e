// Package recipe provides the shared driver for the RECIPE-derived index
// benchmarks (paper §6, Table 3): six crash-consistent index structures
// ported from persistent memory to CXL shared memory, each with its
// paper-reported bugs reimplemented behind toggles.
//
// The driver builds the paper's evaluation shape: two machines, each with
// insert workers and a checker thread. One machine constructs the index
// and publishes it with a flushed ready flag; workers on both machines
// insert disjoint keys, recording each completed insert in a flushed
// per-key progress flag (the commit-store pattern); checkers wait for all
// workers to finish or fail and then verify that every committed key is
// present with the right value — on whatever machines survive, since
// failures can hit concurrently with checking (the partial-failure model,
// §6.1: "we check for the presence of inserted keys in the remaining
// threads").
package recipe

import (
	"fmt"
	"slices"
	"sync"

	cxlmc "repro"
)

// Bug is a bitmask of seeded bugs to enable in a structure. Each
// structure package defines its own bits with the Table 3 numbering.
type Bug uint32

// Has reports whether bug b is enabled.
func (bugs Bug) Has(b Bug) bool { return bugs&b != 0 }

// BugInfo describes one seeded bug for the harness and documentation.
type BugInfo struct {
	Bit   Bug
	Table int    // Table 3 bug number
	Desc  string // the paper's "Type of Bug" column
	New   bool   // marked * (new) in Table 3
	// Keys overrides Config.Keys when hunting this bug (the paper found
	// the P-ART bugs at 48–256 keys; our simplified structures need
	// different counts — see EXPERIMENTS.md); 0 keeps the default.
	Keys int
	// Stride overrides Config.Stride when hunting this bug.
	Stride int
	// Workers overrides Config.Workers when hunting this bug; 0 keeps
	// the default.
	Workers int
}

// Index is the interface every benchmark structure implements over the
// simulated CXL memory. New* constructors only lay out addresses; Init
// runs the structure's constructor code on a simulated thread (so that
// constructor flush bugs are checkable).
type Index interface {
	// Init runs the constructor on the initializing machine's thread.
	Init(t *cxlmc.Thread)
	// Insert adds key→val. Keys are nonzero. Runs under the structure's
	// own concurrency control.
	Insert(t *cxlmc.Thread, key, val uint64)
	// Lookup returns the value for key and whether it was found. It must
	// be crash-safe: traversing the structure after a partial failure
	// must not fault when the structure is correct.
	Lookup(t *cxlmc.Thread, key uint64) (uint64, bool)
}

// Scanner is implemented by ordered indexes; the driver additionally
// verifies that a full scan yields strictly increasing keys (this is what
// exposes duplicate entries left by crashed shifts, Table 3 bug #7).
type Scanner interface {
	// Scan returns all (key, value) pairs in key order.
	Scan(t *cxlmc.Thread) ([]uint64, []uint64)
}

// scanCap is the number of records ScanSlices makes room for: the ten
// keys of the Table 5 workload with some to spare.
const scanCap = 16

// ScanSlices returns the empty key and value slices a Scan appends to,
// both presized to scanCap records from one allocation; a longer scan
// grows them by append.
func ScanSlices() (ks, vs []uint64) {
	buf := make([]uint64, 2*scanCap)
	return buf[:0:scanCap], buf[scanCap : scanCap : 2*scanCap]
}

// Deleter is implemented by structures supporting removal; with
// Config.Deletes the driver adds a crash-checked delete phase.
type Deleter interface {
	// Delete removes key, reporting whether it was present.
	Delete(t *cxlmc.Thread, key uint64) bool
}

// Benchmark ties a structure to its bug inventory.
type Benchmark struct {
	Name string
	// New lays out a fresh instance (addresses only; no simulated stores).
	New  func(p *cxlmc.Program, bugs Bug) Index
	Bugs []BugInfo
}

// MaxKeys bounds Keys: the driver allocates a progress flag per key, so a
// huge count (or one whose byte size wraps) would exhaust the host. The
// largest workload any benchmark or hunt runs is 256 keys.
const MaxKeys = 1 << 16

// MaxStride bounds Stride: key k is k*Stride, so with MaxKeys × MaxStride
// below 2^63 no key wraps — to 0 above all, which the indexes assume no
// inserted key is.
const MaxStride = 1 << 46

// Config parameterizes one driver run.
type Config struct {
	// Keys is the total number of keys inserted (split across workers);
	// Program's set-up fails above MaxKeys.
	Keys int
	// Workers is the number of insert threads per machine. Together with
	// the checker this gives Workers+1 threads per machine; the paper's
	// Table 5 configuration (2 processes × 2 threads) is Workers=1.
	Workers int
	// Stride spaces the inserted keys (key i is i*Stride); 0 means 1.
	// A stride of 16 drives P-ART keys past one byte boundary with few
	// keys, exercising prefix splits cheaply. Program's set-up fails
	// above MaxStride.
	Stride int
	// Deletes adds a delete phase: each worker removes every third key of
	// its partition after inserting, with its own commit flags, and the
	// checkers assert committed deletes stay deleted. Off for the Table 5
	// configuration (the paper's workload is insert-only).
	Deletes bool
	// Machines is the number of compute nodes (0 means the paper's 2).
	// With more machines, any subset can fail, exercising the k-failure
	// constraint handling of §3.3/Figure 4.
	Machines int
	// ConcurrentReaders adds one reader thread per machine that looks up
	// committed keys WHILE the workers are still inserting — the
	// lock-free-reader guarantee the RECIPE structures make, now racing
	// with partial failures (the bug-#22 time-of-check hazard surface).
	ConcurrentReaders bool
	// Bugs enables seeded bugs.
	Bugs Bug
}

// Value is the deterministic value stored for a key (nonzero for any
// key).
func Value(key uint64) uint64 { return key*0x9E3779B97F4A7C15 | 1 }

// Program builds the checker program for one structure under cfg.
//
// The set-up it returns re-runs for every execution, so it makes only what
// an execution owns: the index, its addresses, the threads and the slice
// the checkers join on. The machine and worker names and each worker's key
// partition do not depend on the execution. The first set-up that passes
// the bounds checks builds them (not Program: Workers and Machines have no
// bound of their own), and every exploration worker then only reads them.
func Program(b Benchmark, cfg Config) func(*cxlmc.Program) {
	if cfg.Keys <= 0 {
		cfg.Keys = 10
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.Machines <= 0 {
		cfg.Machines = 2
	}
	shape := sync.OnceValue(func() *layout { return newLayout(cfg) })
	return func(p *cxlmc.Program) {
		keys := cfg.Keys
		if keys > MaxKeys {
			panic(fmt.Sprintf("recipe: %d keys: a run inserts at most %d", keys, MaxKeys))
		}
		if cfg.Stride > MaxStride {
			panic(fmt.Sprintf("recipe: stride %d: keys are spaced at most %d apart", cfg.Stride, MaxStride))
		}
		l := shape()
		idx := b.New(p, cfg.Bugs)
		ready := p.AllocAligned(8, 64)
		progress := p.AllocAligned(uint64(keys)*8, 64)
		nodes := make([]*cxlmc.Machine, 0, 4) // on the stack up to four machines
		for _, name := range l.machines {
			nodes = append(nodes, p.NewMachine(name))
		}

		initT := nodes[0].Thread("init", func(t *cxlmc.Thread) {
			idx.Init(t)
			// Publish the structure with the commit-store pattern.
			t.Store64(ready, 1)
			t.CLFlush(ready)
			t.SFence()
		})

		all := make([]*cxlmc.Thread, 1+len(l.parts))
		all[0] = initT
		for w, part := range l.parts {
			all[1+w] = nodes[w/cfg.Workers].Thread(l.workers[w], func(t *cxlmc.Thread) {
				t.JoinThreads(initT)
				if t.Load64(ready) != 1 {
					return // construction never committed
				}
				// Each worker inserts its partition in descending
				// order so ordered indexes exercise mid-node
				// insertion (shifts) under any schedule — the
				// paper notes Jaaru missed bug #7 because its
				// schedules never produced this pattern.
				for i := len(part) - 1; i >= 0; i-- {
					k := part[i]
					key := uint64(k * cfg.Stride)
					idx.Insert(t, key, Value(key))
					// Commit store: the key is durable once its
					// progress flag is flushed.
					t.Store64(progress+cxlmc.Addr((k-1)*8), 1)
					t.CLFlush(progress + cxlmc.Addr((k-1)*8))
					t.SFence()
				}
				if cfg.Deletes {
					del, ok := idx.(Deleter)
					if !ok {
						t.Fail("recipe: Deletes configured but %T lacks Delete", idx)
						return
					}
					for _, k := range part {
						if k%3 != 0 {
							continue
						}
						del.Delete(t, uint64(k*cfg.Stride))
						t.Store64(progress+cxlmc.Addr((k-1)*8), 2)
						t.CLFlush(progress + cxlmc.Addr((k-1)*8))
						t.SFence()
					}
				}
			})
		}

		if cfg.ConcurrentReaders {
			reader := func(t *cxlmc.Thread) {
				t.JoinThreads(initT)
				if t.Load64(ready) != 1 {
					return
				}
				// One racing pass over the key space: committed keys
				// must be visible and correct even mid-mutation.
				for k := 1; k <= keys; k++ {
					key := uint64(k * cfg.Stride)
					committed := t.Load64(progress+cxlmc.Addr((k-1)*8)) == 1
					v, found := idx.Lookup(t, key)
					if committed && !(cfg.Deletes && k%3 == 0) {
						if !found {
							t.Fail("racing reader: committed key %d missing", k)
						}
						if v != Value(key) {
							t.Fail("racing reader: key %d value %#x", k, v)
						}
					}
				}
			}
			for _, m := range nodes {
				m.Thread("reader", reader)
			}
		}
		check := func(t *cxlmc.Thread) {
			t.JoinThreads(all...)
			if t.Load64(ready) != 1 {
				return
			}
			verify(t, idx, progress, keys, cfg.Stride, cfg.Deletes)
		}
		for _, m := range nodes {
			m.Thread("check", check)
		}
	}
}

// layout is what every execution of a program shares: the names of its
// machines and workers, and each worker's keys. Worker w of n inserts
// keys w+1, w+1+n, …; workers 0 to Workers-1 run on the first machine.
type layout struct {
	machines []string
	workers  []string
	parts    [][]int
}

func newLayout(cfg Config) *layout {
	n := cfg.Workers * cfg.Machines
	l := &layout{
		machines: make([]string, cfg.Machines),
		workers:  make([]string, n),
		parts:    make([][]int, n),
	}
	for i := range l.machines {
		l.machines[i] = fmt.Sprintf("node%d", i)
	}
	flat := make([]int, 0, cfg.Keys)
	for w := range l.parts {
		l.workers[w] = fmt.Sprintf("w%d", w)
		start := len(flat)
		for k := w + 1; k <= cfg.Keys; k += n {
			flat = append(flat, k)
		}
		l.parts[w] = flat[start:len(flat):len(flat)]
	}
	return l
}

// verify asserts the post-failure contract: every committed key is
// present with the right value, every lookup is crash-safe, and ordered
// structures scan without duplicates. It runs in every execution, so a
// check whose message takes arguments is written if !cond { t.Fail(…) }:
// Assert would box them whether or not the check holds.
func verify(t *cxlmc.Thread, idx Index, progress cxlmc.Addr, keys, stride int, deletes bool) {
	// With the delete phase on, keys with k%3==0 are delete targets: an
	// insert-committed flag (1) no longer implies presence, because the
	// tombstone may have persisted while the delete-commit flag was lost
	// with the failed machine's cache. Presence is only asserted for
	// keys that are never deleted; absence once the delete committed (2).
	deleteTarget := func(k int) bool { return deletes && k%3 == 0 }
	for k := 1; k <= keys; k++ {
		key := uint64(k * stride)
		state := t.Load64(progress + cxlmc.Addr((k-1)*8))
		v, found := idx.Lookup(t, key)
		switch state {
		case 1:
			if deleteTarget(k) {
				// Present or mid-delete; the value must be right if seen.
				if found && v != Value(key) {
					t.Fail("key %d has value %#x, want %#x", k, v, Value(key))
				}
				break
			}
			if !found {
				t.Fail("committed key %d missing after failure", k)
			}
			if v != Value(key) {
				t.Fail("committed key %d has value %#x, want %#x", k, v, Value(key))
			}
		case 2:
			if found {
				t.Fail("deleted key %d resurrected after failure (value %#x)", k, v)
			}
		}
	}
	if sc, ok := idx.(Scanner); ok {
		ks, vs := sc.Scan(t)
		for i := range ks {
			if i > 0 && ks[i] <= ks[i-1] {
				t.Fail("scan not strictly increasing at %d: %d after %d (duplicate or disorder)", i, ks[i], ks[i-1])
			}
			if ks[i] != 0 && vs[i] != Value(ks[i]) {
				t.Fail("scan: key %d carries value %#x, want %#x", ks[i], vs[i], Value(ks[i]))
			}
		}
		// Membership searches the whole scan: a buggy one need not be
		// in order.
		for k := 1; k <= keys; k++ {
			key := uint64(k * stride)
			switch t.Load64(progress + cxlmc.Addr((k-1)*8)) {
			case 1:
				if !deleteTarget(k) && !slices.Contains(ks, key) {
					t.Fail("committed key %d missing from scan", key)
				}
			case 2:
				if slices.Contains(ks, key) {
					t.Fail("deleted key %d present in scan", key)
				}
			}
		}
	}
}
