// Package cxl is the programming surface for source-checked CXL
// programs. Users write ordinary Go against this package — Region for
// setup, package-level Load/Store/Flush/Fence for thread code — and
// either run it natively (RunNative, this file: a plain in-process
// runtime over a byte slice, no model checking) or point the checker at
// the source file (cxlmc -check file.go), where internal/gofront
// compiles the same code and lowers every operation to simulated
// x86-TSO + CXL flush events.
//
// The split mirrors the checker's own API: Region methods are
// setup-only (they declare layout, machines, threads and mutexes;
// nothing simulated runs), package-level functions are thread-only
// (they execute on the calling simulated thread). The native runtime
// enforces the same phase discipline so programs that run natively also
// load under the checker.
package cxl

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
)

// Ptr is an address in the shared CXL region. The null page below 64 is
// never allocated, so 0 is always an invalid pointer.
type Ptr uint64

// Region is the setup-time handle to the shared memory region: layout
// allocation, initial (pre-execution, already-persisted) values,
// machines, threads and mutexes. All methods are setup-only.
type Region struct {
	mu      sync.Mutex
	mem     []byte
	next    uint64
	threads []*Thread
	running bool

	failMu   sync.Mutex
	failures []any
}

// Machine is one compute node attached to the region. Under the checker
// a machine can fail (losing its caches); the native runtime never
// fails machines, so Join always reports survival.
type Machine struct {
	r       *Region
	name    string
	threads []*Thread
}

// Thread is a handle to a spawned thread, used only for JoinAll.
type Thread struct {
	m    *Machine
	name string
	fn   func()
	done chan struct{}
}

// Mutex is a failure-aware mutex: under the checker, a lock whose owner
// died is force-released and the next owner is told. Natively owners
// never die.
type Mutex struct {
	mu   sync.Mutex
	name string
}

// active is the region package-level operations act on: set for the
// duration of RunNative (and, under the checker, bound implicitly to
// the simulated thread).
var (
	activeMu sync.Mutex
	active   *Region
)

func activeRegion() *Region {
	activeMu.Lock()
	defer activeMu.Unlock()
	if active == nil {
		panic("cxl: no active region (thread operations only run inside RunNative or under the checker)")
	}
	return active
}

// RunNative executes program under the plain native runtime: setup runs
// first, then every spawned thread runs as a goroutine, and RunNative
// returns when all of them finish. A panic in any thread (including a
// failed Assert) is re-raised here. Under the checker this function is
// never run — the checker calls the entry function itself — so
// a main that wraps the entry in RunNative keeps the file a buildable,
// runnable ordinary Go program.
func RunNative(program func(*Region)) *Region {
	r := &Region{mem: make([]byte, 1<<20), next: 64}
	activeMu.Lock()
	if active != nil {
		activeMu.Unlock()
		panic("cxl: RunNative is not reentrant")
	}
	active = r
	activeMu.Unlock()
	defer func() {
		activeMu.Lock()
		active = nil
		activeMu.Unlock()
	}()

	program(r)
	r.running = true

	var wg sync.WaitGroup
	for _, t := range r.threads {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(t.done)
			defer func() {
				if v := recover(); v != nil {
					r.failMu.Lock()
					r.failures = append(r.failures, fmt.Sprintf("thread %q: %v", t.name, v))
					r.failMu.Unlock()
				}
			}()
			t.fn()
		}()
	}
	wg.Wait()
	if len(r.failures) > 0 {
		panic(r.failures[0])
	}
	return r
}

func (r *Region) setupOnly(what string) {
	if r.running {
		panic("cxl: " + what + " is setup-only (threads use the package-level functions)")
	}
}

// Alloc carves size bytes (8-byte aligned) out of the region during
// setup.
func (r *Region) Alloc(size uint64) Ptr { return r.AllocAligned(size, 8) }

// AllocAligned is Alloc with explicit power-of-two alignment (64 forces
// cache-line alignment; 1 allows objects to straddle lines).
func (r *Region) AllocAligned(size, align uint64) Ptr {
	r.setupOnly("Region.AllocAligned")
	return r.alloc(size, align)
}

func (r *Region) alloc(size, align uint64) Ptr {
	r.mu.Lock()
	defer r.mu.Unlock()
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("cxl: alignment %d is not a power of two", align))
	}
	if size == 0 {
		size = 1
	}
	next := (r.next + align - 1) &^ (align - 1)
	for next+size > uint64(len(r.mem)) {
		r.mem = append(r.mem, make([]byte, len(r.mem))...)
	}
	r.next = next + size
	return Ptr(next)
}

// Init64 writes an initial 8-byte value at p as already-persisted data —
// the state the region held before execution began.
func (r *Region) Init64(p Ptr, v uint64) {
	r.setupOnly("Region.Init64")
	r.store(p, 8, v)
}

// NewMachine declares a compute node.
func (r *Region) NewMachine(name string) *Machine {
	r.setupOnly("Region.NewMachine")
	return &Machine{r: r, name: name}
}

// NewMutex creates a failure-aware mutex.
func (r *Region) NewMutex(name string) *Mutex {
	r.setupOnly("Region.NewMutex")
	return &Mutex{name: name}
}

// Peek64 reads an 8-byte value directly, outside any thread — a native
// test hook for inspecting final memory after RunNative returns. Not
// part of the checked subset.
func (r *Region) Peek64(p Ptr) uint64 { return r.load(p, 8) }

// Spawn declares a thread running fn on the machine. Setup-only; fn
// starts after setup completes.
func (m *Machine) Spawn(name string, fn func()) *Thread {
	m.r.setupOnly("Machine.Spawn")
	t := &Thread{m: m, name: name, fn: fn, done: make(chan struct{})}
	m.threads = append(m.threads, t)
	m.r.threads = append(m.r.threads, t)
	return t
}

// Lock acquires the mutex, reporting whether it was force-released from
// a failed owner (never true natively).
func (mu *Mutex) Lock() bool { mu.mu.Lock(); return false }

// TryLock attempts the lock without blocking.
func (mu *Mutex) TryLock() (acquired, ownerFailed bool) { return mu.mu.TryLock(), false }

// Unlock releases the mutex.
func (mu *Mutex) Unlock() { mu.mu.Unlock() }

// OwnerFailed reports whether the current holder acquired the mutex via
// a forced release (never natively).
func (mu *Mutex) OwnerFailed() bool { return false }

// checkAccess bounds-checks a native access under the region lock.
func (r *Region) checkAccess(p Ptr, size uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(p, size)
}

// check bounds-checks a native access the way the checker would. The
// caller holds r.mu.
func (r *Region) check(p Ptr, size uint64) {
	if uint64(p) < 64 || uint64(p)+size > r.next {
		panic(fmt.Sprintf("cxl: access to [%#x,%#x) outside allocated region", p, uint64(p)+size))
	}
}

func (r *Region) load(p Ptr, size uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(p, size)
	var buf [8]byte
	copy(buf[:size], r.mem[p:uint64(p)+size])
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *Region) store(p Ptr, size uint64, v uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(p, size)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	copy(r.mem[p:uint64(p)+size], buf[:size])
}

// rmw runs an atomic read-modify-write under the region lock.
func (r *Region) rmw(p Ptr, size uint64, f func(cur uint64) uint64) (prev uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.check(p, size)
	var buf [8]byte
	copy(buf[:size], r.mem[p:uint64(p)+size])
	prev = binary.LittleEndian.Uint64(buf[:])
	binary.LittleEndian.PutUint64(buf[:], f(prev))
	copy(r.mem[p:uint64(p)+size], buf[:size])
	return prev
}

// Load8 loads one byte.
func Load8(p Ptr) uint8 { return uint8(activeRegion().load(p, 1)) }

// Load16 loads a 16-bit little-endian value.
func Load16(p Ptr) uint16 { return uint16(activeRegion().load(p, 2)) }

// Load32 loads a 32-bit little-endian value.
func Load32(p Ptr) uint32 { return uint32(activeRegion().load(p, 4)) }

// Load64 loads a 64-bit little-endian value.
func Load64(p Ptr) uint64 { return activeRegion().load(p, 8) }

// Store8 stores one byte.
func Store8(p Ptr, v uint8) { activeRegion().store(p, 1, uint64(v)) }

// Store16 stores a 16-bit value.
func Store16(p Ptr, v uint16) { activeRegion().store(p, 2, uint64(v)) }

// Store32 stores a 32-bit value.
func Store32(p Ptr, v uint32) { activeRegion().store(p, 4, uint64(v)) }

// Store64 stores a 64-bit value.
func Store64(p Ptr, v uint64) { activeRegion().store(p, 8, v) }

// Flush executes clflush on the cache line containing p (a no-op
// natively: the native runtime has no store buffers or caches to lose).
func Flush(p Ptr) { activeRegion().checkAccess(p, 1) }

// FlushOpt executes clflushopt on the line containing p.
func FlushOpt(p Ptr) { activeRegion().checkAccess(p, 1) }

// CLWB executes clwb on the line containing p (the checker models it as
// clflushopt).
func CLWB(p Ptr) { FlushOpt(p) }

// Fence executes sfence.
func Fence() {}

// MFence executes mfence.
func MFence() {}

// CAS64 executes a locked compare-and-swap on a 64-bit value.
func CAS64(p Ptr, old, new uint64) (prev uint64, swapped bool) {
	prev = activeRegion().rmw(p, 8, func(cur uint64) uint64 {
		if cur == old {
			return new
		}
		return cur
	})
	return prev, prev == old
}

// CAS32 executes a locked compare-and-swap on a 32-bit value.
func CAS32(p Ptr, old, new uint32) (prev uint32, swapped bool) {
	pr := activeRegion().rmw(p, 4, func(cur uint64) uint64 {
		if uint32(cur) == old {
			return uint64(new)
		}
		return cur
	})
	return uint32(pr), uint32(pr) == old
}

// Swap64 executes a locked exchange on a 64-bit value.
func Swap64(p Ptr, v uint64) (prev uint64) {
	return activeRegion().rmw(p, 8, func(uint64) uint64 { return v })
}

// FetchAdd64 executes a locked fetch-and-add on a 64-bit value.
func FetchAdd64(p Ptr, delta uint64) (prev uint64) {
	return activeRegion().rmw(p, 8, func(cur uint64) uint64 { return cur + delta })
}

// FetchAdd32 executes a locked fetch-and-add on a 32-bit value.
func FetchAdd32(p Ptr, delta uint32) (prev uint32) {
	return uint32(activeRegion().rmw(p, 4, func(cur uint64) uint64 {
		return uint64(uint32(cur) + delta)
	}))
}

// Alloc carves size bytes (8-byte aligned) out of the region from
// thread code.
func Alloc(size uint64) Ptr { return activeRegion().alloc(size, 8) }

// AllocAligned is Alloc with explicit power-of-two alignment.
func AllocAligned(size, align uint64) Ptr { return activeRegion().alloc(size, align) }

// Assert reports a bug and halts the execution when cond is false.
// Natively a failed assert panics.
func Assert(cond bool, format string, args ...any) {
	if !cond {
		panic("cxl: assertion failed: " + fmt.Sprintf(format, args...))
	}
}

// Fail reports a bug unconditionally.
func Fail(format string, args ...any) {
	panic("cxl: failure: " + fmt.Sprintf(format, args...))
}

// Join blocks until machine m has failed or all of its threads have
// finished, returning true if it failed (natively: never).
func Join(m *Machine) (failedMachine bool) {
	for _, t := range m.threads {
		<-t.done
	}
	return false
}

// JoinAll blocks until every listed thread has finished or lost its
// machine to a failure.
func JoinAll(ts ...*Thread) {
	for _, t := range ts {
		<-t.done
	}
}

// Yield cedes the processor without simulating an instruction.
func Yield() { runtime.Gosched() }

// Failpoint marks a named scheduling- and crash-interesting point: a
// hint that schedules interleaving here (and machine failures near
// here) are worth exploring. Natively it is a bare yield.
func Failpoint(name string) { _ = name; runtime.Gosched() }
