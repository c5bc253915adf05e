package core

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/sched"
)

// Program is the handle setup code uses to describe one execution of the
// checked program: the machines, their threads, shared-memory allocations
// and synchronization objects. The setup function passed to Run is called
// once per execution, so everything it creates is rebuilt from scratch
// each time — exactly like re-running a real program.
type Program struct {
	ck    *Checker
	local any
}

// Local is a slot for whatever builds the program to keep state in from
// one execution to the next: gofront keeps there the arena its
// execution-scoped values come from. A checker passes its set-up the same
// *Program every execution, and starts the next set-up only once every
// thread of the previous execution has been torn down; a checker's next
// Run inherits the slot with the rest of its scratch. No two executions
// run on one handle at once.
func (p *Program) Local() *any { return &p.local }

// Machine is a simulated compute node with an independent failure domain.
type Machine struct {
	ck       *Checker
	id       MachineID
	name     string
	joinNote string // "join "+name, what a thread blocked in Join shows in a deadlock report
	failed   bool
	threads  []*Thread
	// joiners are threads blocked in Join on this machine.
	joiners []*Thread
}

// NewMachine adds a compute node. At least two machines are typical: one
// whose failures are explored and one that survives to observe the
// post-failure memory.
//
// Machine structs are pooled across executions and Runs (they are in the
// checker's scratch): resetExecution truncates ck.machines to length 0
// keeping the backing array, and the slots past the length still hold the
// last execution's structs for reuse here.
func (p *Program) NewMachine(name string) *Machine {
	ck := p.ck
	n := len(ck.machines)
	if n >= memmodel.MaxMachines {
		panic(fmt.Sprintf("cxlmc: too many machines (max %d)", memmodel.MaxMachines))
	}
	var m *Machine
	if n < cap(ck.machines) && ck.machines[:n+1][n] != nil {
		ck.machines = ck.machines[:n+1]
		m = ck.machines[n]
		m.threads = m.threads[:0]
		m.joiners = m.joiners[:0]
	} else {
		m = &Machine{}
		ck.machines = append(ck.machines, m)
	}
	m.ck = ck
	m.id = MachineID(n)
	if m.name != name || m.joinNote == "" {
		m.joinNote = "join " + name
	}
	m.name = name
	m.failed = false
	if ck.fp != nil {
		ck.fp.names("machine", name)
	}
	return m
}

// Name returns the machine's name.
func (m *Machine) Name() string { return m.name }

// ID returns the machine's identifier.
func (m *Machine) ID() MachineID { return m.id }

// Threads returns the machine's threads in creation order.
func (m *Machine) Threads() []*Thread { return m.threads }

// Failed reports whether the machine has failed. Benchmark code must not
// call this to branch on failure state (real CXL nodes learn of failures
// through the coordination layer); use Thread.Join or Mutex.OwnerFailed
// instead. It is exported for harness assertions.
func (m *Machine) Failed() bool { return m.failed }

// Thread adds a simulated thread running fn on the machine. Threads are
// scheduled deterministically under the run's seed. Thread structs (and
// their buffer state, and the function the scheduler runs) are pooled
// across executions and Runs like machines.
func (m *Machine) Thread(name string, fn func(*Thread)) *Thread {
	ck := m.ck
	n := len(ck.threads)
	var t *Thread
	if n < cap(ck.threads) && ck.threads[:n+1][n] != nil {
		ck.threads = ck.threads[:n+1]
		t = ck.threads[n]
		t.tb.Reset()
	} else {
		t = &Thread{tb: memmodel.NewThreadBuf()}
		t.run = func(*sched.Thread) { t.fn(t) }
		ck.threads = append(ck.threads, t)
	}
	t.ck = ck
	t.idx = n
	t.mach = m
	t.name = name
	t.fn = fn
	t.st = ck.sch.NewThread(int(m.id), name, t.run)
	m.threads = append(m.threads, t)
	for len(ck.runBits) <= n>>6 {
		ck.runBits = append(ck.runBits, 0)
	}
	for len(ck.pendBits) <= (2*n+1)>>6 {
		ck.pendBits = append(ck.pendBits, 0)
	}
	ck.touch(t)
	if ck.fp != nil {
		ck.fp.names("thread", m.name, name)
	}
	return t
}

// Alloc carves size bytes out of the shared CXL region and returns its
// base address. Setup-time allocations start zeroed and persisted (they
// model the region's device-resident initial state). The result is
// 8-byte aligned.
func (p *Program) Alloc(size uint64) Addr {
	return p.ck.alloc(size, 8)
}

// AllocAligned is Alloc with an explicit power-of-two alignment (e.g. 64
// to force cache-line alignment, or 1 to allow objects to straddle cache
// lines — the layout hazard behind Table 3 bugs #4 and #12).
func (p *Program) AllocAligned(size, align uint64) Addr {
	return p.ck.alloc(size, align)
}

// Init64 writes an initial 8-byte value at addr as device-resident
// (already persisted) data — the state the region held before the checked
// execution began. Use thread code, not Init64, for anything whose
// crash consistency is being checked.
func (p *Program) Init64(addr Addr, val uint64) {
	// Set-up runs outside any thread, so an out-of-range write is reported
	// without unwinding anything; it must still not reach the memory.
	if p.ck.checkRange(addr, 8) {
		p.ck.mem.InitWrite(addr, 8, val)
	}
	if p.ck.fp != nil {
		p.ck.fp.nums("init", uint64(addr), val)
	}
}

// NewMutex creates a mutex with the paper's failure-aware semantics (§5):
// when the owning thread's machine fails, the mutex is released
// automatically and the next owner can ask whether it was acquired after
// such a forced release.
func (p *Program) NewMutex(name string) *Mutex {
	ck := p.ck
	n := len(ck.mutexes)
	var mu *Mutex
	if n < cap(ck.mutexes) && ck.mutexes[:n+1][n] != nil {
		ck.mutexes = ck.mutexes[:n+1]
		mu = ck.mutexes[n]
		mu.waiters = mu.waiters[:0]
	} else {
		mu = &Mutex{}
		ck.mutexes = append(ck.mutexes, mu)
	}
	mu.ck = ck
	if mu.name != name || mu.blockNote == "" {
		mu.blockNote = "mutex " + name
	}
	mu.name = name
	mu.idx = n
	mu.owner = nil
	mu.releasedByFailure = false
	if ck.fp != nil {
		ck.fp.names("mutex", name)
	}
	return mu
}

// alloc bumps the shared-region allocator. Allocations are never reused
// within an execution, which keeps post-crash dangling pointers
// detectable.
func (ck *Checker) alloc(size, align uint64) Addr {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("cxlmc: alignment %d is not a power of two", align))
	}
	if size == 0 {
		size = 1
	}
	next := (uint64(ck.heapNext) + align - 1) &^ (align - 1)
	if next+size > ck.cfg.memSize {
		panic(fmt.Sprintf("cxlmc: simulated CXL region exhausted (%d bytes)", ck.cfg.memSize))
	}
	ck.heapNext = Addr(next + size)
	if ck.fp != nil {
		ck.fp.nums("alloc", size, align)
	}
	return Addr(next)
}

// checkRange verifies [a, a+size) lies within allocated memory; a
// violation is the simulated analogue of a segmentation fault. In thread
// context the report unwinds the thread; from set-up code it returns
// false and the caller must drop the access.
func (ck *Checker) checkRange(a Addr, size uint64) bool {
	if a < heapBase || uint64(a)+size > uint64(ck.heapNext) || uint64(a)+size < uint64(a) {
		ck.reportBugHere(BugSegfault, fmt.Sprintf("segmentation fault: access to [%#x,%#x) outside allocated region [%#x,%#x)",
			a, uint64(a)+size, heapBase, ck.heapNext))
		return false
	}
	return true
}

// heapBase is the first allocatable address; everything below it is the
// null page.
const heapBase = Addr(memmodel.LineSize)
