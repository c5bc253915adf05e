package gofront

import (
	"fmt"
	"go/token"
	"go/types"

	"repro/internal/core"
)

// Run-time representation. Integers and bools are unboxed: a uint64 in
// canonical form (sign-extended for signed kinds, zero-extended for
// unsigned ones, so equality and conversion never look at the kind
// again; bools are 0 or 1). Everything else travels as an any holding a
// host Go value of one fixed dynamic type per static type:
//
//	string                    string
//	[]T, T integer or bool    []uint64
//	[]T, any other T          []any
//	*T, T a declared struct   *object
//	func(...)                 *closure
//	*cxl.Region               *core.Program
//	*cxl.Machine/Thread/Mutex *core.Machine / *core.Thread / *core.Mutex
//
// Slices are host slices, so header copying, aliasing and append growth
// follow Go's own semantics for free; nil is the typed nil of the row.

// repr says where a value of a static type lives.
type repr uint8

const (
	rInt  repr = iota // frame.ints, canonical integer
	rBool             // frame.ints, 0 or 1
	rRef              // frame.refs
)

// cell is one heap variable: a local some func literal captures, or a
// struct field. Only the half matching the variable's repr is used.
type cell struct {
	n uint64
	r any
}

// object is a struct instance; structs are pointer-shaped in the subset
// (created by &T{...}), so *object is the value and fields are indexed
// as types.Struct orders them.
type object struct{ f []cell }

// closure is a function value: compiled code plus the cells it
// captured, in the order of fnCode.capSlots.
type closure struct {
	fn   *fnCode
	caps []any
}

// fnCode is one compiled function, method or func literal. Parameters
// (receiver first) occupy the first slots of their repr's array in
// declaration order, so a caller can place arguments knowing only the
// signature.
type fnCode struct {
	id       int
	pos      token.Pos
	nInts    int
	nRefs    int
	capSlots []int // refs slots the captured cells are copied into
	body     stmt
	self     *closure // the capture-free function value, for named functions
	// A function that defers keeps the results its return statement left
	// in the registers in nResults slots of its own frame (from saveInts
	// and saveRefs on) while the deferred calls, which use the registers
	// too, run.
	hasDefer           bool
	nResults           int
	saveInts, saveRefs int
}

// frame is one call activation. No value outlives the call in a frame
// (what a func literal captures lives in cells), so frames belong to
// their machine, not to a call or an execution: a released frame keeps
// the references its last call left in its slots until it is used
// again, which bounds what a pooled machine holds on to by the deepest
// stack each function reached on it.
type frame struct {
	m      *machine
	ints   []uint64
	refs   []any
	defers []deferred
}

// frameStack is one function's frames on a machine (or its deferred
// calls'): the first used are taken by calls still running, or by calls
// a kill, a fault or Teardown unwound, which never give theirs back.
// release resets used wholesale, so a call pays for no bookkeeping
// beyond the count.
type frameStack struct {
	all  []*frame
	used int
}

// take returns the stack's next frame, making one of nInts and nRefs
// slots if the stack never grew this deep.
func (st *frameStack) take(m *machine, nInts, nRefs int) *frame {
	if st.used == len(st.all) {
		st.all = append(st.all, &frame{m: m, ints: make([]uint64, nInts), refs: make([]any, nRefs)})
	}
	st.used++
	return st.all[st.used-1]
}

// deferred is one pending deferred call: callee and arguments were
// evaluated into fr at defer time, run performs the call at unwind.
type deferred struct {
	run func(*frame)
	fr  *frame
}

// machine runs one phase of one execution: setup (t nil, Region methods
// legal, thread operations not) or one simulated thread. Compiled code
// is immutable and shared by every machine of every exploration worker.
// A machine outlives its phase the way a scheduler's carrier outlives
// its execution: newMachine takes one from the Source's pool and release
// gives it back, with its frames, registers and scratch stacks, when the
// phase ends however it ended.
type machine struct {
	src *Source
	// The phase's state, reset by release.
	t       *core.Thread
	sites   *SiteMap
	depth   int
	steps   int
	elems   uint64 // charged against maxHostElems
	pending int    // deferred calls not yet run, bounded by maxPendingDefers
	// failedDefers counts the deferred calls that panicked.
	failedDefers int
	// The machine's frames: each function's by fnCode.id, and the
	// deferred calls' (one stack for every defer statement, sized for the
	// widest, since deferred calls run last in first out).
	frames   []frameStack
	deferred frameStack
	// Result registers: a call leaves result j in ri[j] or rr[j] by its
	// repr; the caller reads them before evaluating anything else.
	ri []uint64
	rr []any
	// args stacks the variadic operands of Assert, Fail and JoinAll while
	// the later ones are evaluated, and targets is JoinAll's argument list.
	args    []cell
	targets []*core.Thread
}

// maxInterpDepth bounds call recursion; maxInterpSteps bounds calls
// plus loop iterations per machine, so a loop that never touches a cxl
// operation (and therefore never yields to the checker's own livelock
// detection) still dies with a positioned fault instead of wedging the
// scheduler.
const (
	maxInterpDepth = 4096
	maxInterpSteps = 50_000_000
)

// maxPendingDefers bounds the deferred calls one machine has waiting (a
// defer statement in a runaway loop must not queue the host's memory),
// maxFailedDefers those that may panic (see runDefers).
const (
	maxPendingDefers = 1 << 16
	maxFailedDefers  = 16
)

// maxHostElems bounds what one machine may take from the host, in
// 8-byte words more or less: slice elements made or appended, string
// bytes concatenated, struct fields, captured variables, deferred calls,
// and threads and mutexes created. Sizes and loops a source file made up
// must cost a positioned fault, not the host's memory.
const maxHostElems = 1 << 24

// newMachine takes a machine from the pool for one phase.
func (s *Source) newMachine(t *core.Thread, sites *SiteMap) *machine {
	m, _ := s.machines.Get().(*machine)
	if m == nil {
		m = &machine{
			src:    s,
			frames: make([]frameStack, s.nfuncs),
			ri:     make([]uint64, s.maxResults),
			rr:     make([]any, s.maxResults),
		}
	}
	m.t, m.sites = t, sites
	return m
}

// release ends m's phase and gives it back to the pool: every frame is
// free again, those a kill, a fault or Teardown unwound through
// included, and the counters the phase's budgets read start from zero.
func (m *machine) release() {
	for i := range m.frames {
		m.frames[i].used = 0
	}
	m.deferred.used = 0
	m.args = m.args[:0]
	m.t, m.sites = nil, nil
	m.depth, m.steps, m.elems = 0, 0, 0
	m.pending, m.failedDefers = 0, 0
	m.src.machines.Put(m)
}

// faultf panics with a positioned run-time fault. During setup the
// checker converts it into a setup error; on a simulated thread it
// becomes a BugPanic with the position in the message.
func (m *machine) faultf(pos token.Pos, format string, args ...any) {
	panic(Diagnostic{Pos: m.src.pos(pos), Msg: fmt.Sprintf(format, args...)})
}

func (m *machine) tick(pos token.Pos) {
	m.steps++
	if m.steps > maxInterpSteps {
		m.faultf(pos, "statement budget exceeded (%d): possible infinite loop with no cxl operations", maxInterpSteps)
	}
}

// grow charges n elements of host memory to the machine.
func (m *machine) grow(n uint64, pos token.Pos) {
	m.elems += n
	if n > maxHostElems || m.elems > maxHostElems {
		m.faultf(pos, "memory budget exceeded (%d words): possible unbounded growth", maxHostElems)
	}
}

func (m *machine) get(fn *fnCode) *frame {
	return m.frames[fn.id].take(m, fn.nInts, fn.nRefs)
}

// exec runs fn on a frame whose parameter slots are filled, leaving the
// results in the registers. Deferred calls run via a real Go defer, so
// when a reported bug unwinds the simulated thread (KillSelf panics
// through the compiled code), interpreted defers execute exactly like
// the hand-ported benchmarks' Go defers do — mutexes get unlocked during
// bug unwinding, keeping op streams and decision trees identical.
func (m *machine) exec(fn *fnCode, fr *frame, pos token.Pos) {
	m.depth++
	if m.depth > maxInterpDepth {
		m.faultf(pos, "interpreted call stack exceeds %d frames", maxInterpDepth)
	}
	m.tick(pos)
	if fn.hasDefer {
		fr.runDeferring(fn)
	} else {
		fn.body(fr)
	}
	m.depth--
	m.frames[fn.id].used--
}

func (fr *frame) runDeferring(fn *fnCode) {
	defer fr.unwind(fn, fr.m.depth)
	fn.body(fr)
}

// unwind runs the deferred calls with the function's results set aside.
// depth is the function's own: when a fault or a killed thread unwinds
// through deeper calls, their decrements never ran.
func (fr *frame) unwind(fn *fnCode, depth int) {
	m, n := fr.m, fn.nResults
	m.depth = depth
	copy(fr.ints[fn.saveInts:], m.ri[:n])
	copy(fr.refs[fn.saveRefs:], m.rr[:n])
	fr.runDefers()
	copy(m.ri, fr.ints[fn.saveInts:fn.saveInts+n])
	copy(m.rr, fr.refs[fn.saveRefs:fn.saveRefs+n])
}

// runDefers runs the pending deferred calls last-in first-out. One that
// panics does not skip the rest: they run while its panic unwinds. The
// host never frees the stack of a panic that a deferred call's own panic
// replaced, so a machine is allowed maxFailedDefers of those; past that
// (code that faults again in every deferred call it keeps making) the
// calls still pending are dropped. A deferred call's frame goes back to
// the machine once the call has run: any taken after it belonged to
// calls that have ended by then.
func (fr *frame) runDefers() {
	for len(fr.defers) > 0 {
		if fr.m.failedDefers > maxFailedDefers {
			fr.m.pending -= len(fr.defers)
			fr.defers = fr.defers[:0]
			return
		}
		fr.runLastDefer()
	}
}

func (fr *frame) runLastDefer() {
	n := len(fr.defers)
	d := fr.defers[n-1]
	fr.defers = fr.defers[:n-1]
	fr.m.pending--
	returned := false
	defer func() {
		if !returned {
			fr.m.failedDefers++
			fr.runDefers()
		}
	}()
	d.run(d.fr)
	fr.m.deferred.used--
	returned = true
}

// call invokes a function value from host code (the entry function, a
// spawned thread body).
func (m *machine) call(cl *closure, pos token.Pos) {
	fr := m.get(cl.fn)
	for j, s := range cl.fn.capSlots {
		fr.refs[s] = cl.caps[j]
	}
	m.exec(cl.fn, fr, pos)
}

// ---- integer kinds ----

// intKind resolves a type to its integer basic kind, seeing through
// named types (cxl.Ptr → uint64). The model is 64-bit: int, uint and
// uintptr are 8 bytes, matching the platforms the checker runs on and
// the hand-ported benchmarks assume.
func intKind(t types.Type) (types.BasicKind, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0, false
	}
	switch k := b.Kind(); k {
	case types.UntypedInt:
		return types.Int, true
	case types.UntypedRune:
		return types.Int32, true
	case types.Int, types.Int8, types.Int16, types.Int32, types.Int64,
		types.Uint, types.Uint8, types.Uint16, types.Uint32, types.Uint64, types.Uintptr:
		return k, true
	}
	return 0, false
}

func kindWidth(k types.BasicKind) uint {
	switch k {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}

func kindSigned(k types.BasicKind) bool {
	switch k {
	case types.Int, types.Int8, types.Int16, types.Int32, types.Int64:
		return true
	}
	return false
}

// normFn returns the function bringing a 64-bit result back to kind k's
// canonical form, or nil when k is 64 bits wide and every result
// already is.
func normFn(k types.BasicKind) func(uint64) uint64 {
	w := kindWidth(k)
	if w == 64 {
		return nil
	}
	if kindSigned(k) {
		shift := 64 - w
		return func(x uint64) uint64 { return uint64(int64(x<<shift) >> shift) }
	}
	mask := uint64(1)<<w - 1
	return func(x uint64) uint64 { return x & mask }
}

func norm(x uint64, k types.BasicKind) uint64 {
	if f := normFn(k); f != nil {
		return f(x)
	}
	return x
}

// boxInt boxes a canonical integer as the Go value of its own kind, so
// fmt formatting of Assert/Fail arguments matches what compiled code
// passing the same expression would print.
func boxInt(x uint64, k types.BasicKind) any {
	switch k {
	case types.Int:
		return int(x)
	case types.Int8:
		return int8(x)
	case types.Int16:
		return int16(x)
	case types.Int32:
		return int32(x)
	case types.Int64:
		return int64(x)
	case types.Uint:
		return uint(x)
	case types.Uint8:
		return uint8(x)
	case types.Uint16:
		return uint16(x)
	case types.Uint32:
		return uint32(x)
	case types.Uintptr:
		return uintptr(x)
	default:
		return x
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
