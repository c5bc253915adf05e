package gofront

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/core"
)

// call compiles a call expression. Every kind of call first compiles
// its operands (function value or receiver, then arguments, in Go's
// evaluation order) and then builds the call over them; sub, when set,
// replaces the operands in between — which is how defer gets its Go
// semantics (operands at defer time, the call at unwind).
func (fc *fnCompiler) call(call *ast.CallExpr, sub func([]expr) []expr) expr {
	if sub == nil {
		sub = func(ops []expr) []expr { return ops }
	}
	pos := call.Pos()
	t := fc.info.TypeOf(call)
	args := func(sig *types.Signature, first ...expr) []expr {
		for k, a := range call.Args {
			first = append(first, fc.as(fc.expr(a), paramType(sig, k, call.Ellipsis.IsValid())))
		}
		return sub(first)
	}

	// Type conversion: T(x).
	if tv, ok := fc.info.Types[call.Fun]; ok && tv.IsType() {
		return fc.convert(sub([]expr{fc.expr(call.Args[0])})[0], tv.Type, pos)
	}

	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch o := fc.info.Uses[f].(type) {
		case *types.Builtin:
			return fc.builtin(o.Name(), call, t, sub)
		case *types.Func:
			if code, ok := fc.funcs[o]; ok {
				sig := o.Type().(*types.Signature)
				return fc.invoke(code, nil, args(sig), sig, pos)
			}
		}
	case *ast.SelectorExpr:
		fn, isFunc := fc.info.Uses[f.Sel].(*types.Func)
		if !isFunc {
			break // a field holding a function value
		}
		sig := fn.Type().(*types.Signature)
		sel, isMethod := fc.info.Selections[f]
		isMethod = isMethod && sel.Kind() == types.MethodVal
		switch {
		case fn.Pkg() == fc.s.cxlPkg && isMethod:
			return fc.cxlMethod(fn, args(sig, fc.expr(f.X)), t, pos)
		case fn.Pkg() == fc.s.cxlPkg:
			return fc.cxlFunc(fn.Name(), args(sig), call.Ellipsis.IsValid(), t, pos)
		case isMethod:
			code, ok := fc.funcs[fn]
			if !ok {
				fc.errorf(pos, "method %s has no interpretable body", fn.FullName())
				return expr{}
			}
			return fc.invoke(code, nil, args(sig, fc.expr(f.X)), sig, pos)
		}
	}

	// A function value: a closure in a variable, a field, a call result.
	fnv := fc.expr(call.Fun)
	sig, ok := fnv.t.Underlying().(*types.Signature)
	if !ok {
		if fnv.r != nil {
			fc.errorf(pos, "call of non-function value")
		}
		return expr{}
	}
	ops := args(sig, fnv)
	return fc.invoke(nil, ops[0].r, ops[1:], sig, pos)
}

// paramType is the type argument k of a call to sig is assigned to.
func paramType(sig *types.Signature, k int, spread bool) types.Type {
	last := sig.Params().Len() - 1
	if !sig.Variadic() || k < last {
		return sig.Params().At(k).Type()
	}
	t := sig.Params().At(last).Type()
	if spread {
		return t
	}
	return t.(*types.Slice).Elem()
}

// as compiles the implicit conversion of e to t where a value is
// assigned, passed or returned. The one such conversion the subset has
// is of nil, which the type checker leaves untyped, to t's own nil.
func (fc *fnCompiler) as(e expr, t types.Type) expr {
	if _, ok := reprOf(t); ok && isUntypedNil(e.t) && e.r != nil {
		return fc.zero(t)
	}
	return e
}

// callSite is one compiled call of interpreted code: a static callee,
// or a function value evaluated at the call. Its arguments are split at
// compile time by how they reach the callee's parameter slots: a
// slotted integer or reference (a local, a constant, a temporary) is
// copied slot to slot with no call, after the others — reading a slot
// commutes with every call — and the rest run their closures in Go's
// order.
type callSite struct {
	pos      token.Pos
	fn       *fnCode
	fnv      refFn
	evals    []argCode
	intMoves []move
	refMoves []move
}

// argCode evaluates one argument into its parameter slot.
type argCode struct {
	slot int
	i    intFn
	r    refFn
}

// move copies the caller's slot from into the callee's slot to.
type move struct{ to, from int }

// run returns the call as one closure: a call statement runs it as it
// is, a call expression reads the result register after it. It is kept
// out of line because the copy of a closure that inlining its maker
// makes gets none of its own calls inlined, and this one's take and
// enter are on every call's path.
//
//go:noinline
func (cs *callSite) run() stmt {
	return func(fr *frame) ctl {
		m, fn := fr.m, cs.fn
		var cl *closure
		if fn == nil {
			if cl = cs.fnv(fr).(*closure); cl == nil {
				for k := range cs.evals { // the arguments' effects come first, as in Go
					if a := &cs.evals[k]; a.i != nil {
						a.i(fr)
					} else {
						a.r(fr)
					}
				}
				m.fault(cs.pos, "call of nil function")
			}
			fn = cl.fn
		}
		st := &m.frames[fn.id]
		cf := st.take(m, fn.nInts, fn.nRefs, fn.ints)
		for k := range cs.evals {
			if a := &cs.evals[k]; a.i != nil {
				cf.ints[a.slot] = a.i(fr)
			} else {
				cf.refs[a.slot] = a.r(fr)
			}
		}
		for _, mv := range cs.intMoves {
			cf.ints[mv.to] = fr.ints[mv.from]
		}
		for _, mv := range cs.refMoves {
			cf.refs[mv.to] = fr.refs[mv.from]
		}
		if cl != nil {
			for j, s := range fn.capSlots {
				cf.refs[s] = cl.caps[j]
			}
		}
		// m.exec(fn, cf, cs.pos), inlined: one Go frame less per call.
		m.enter(cs.pos)
		if fn.hasDefer {
			cf.runDeferring(fn)
		} else {
			fn.body(cf)
		}
		m.depth--
		st.used--
		return ctlNext
	}
}

// invoke builds the call of fn (or of the function value fnv) over
// compiled arguments, receiver first. A call with one result reads it
// from the registers straight after the call, and keeps the call itself
// as do for a call statement.
func (fc *fnCompiler) invoke(fn *fnCode, fnv refFn, args []expr, sig *types.Signature, pos token.Pos) expr {
	cs := &callSite{pos: pos, fn: fn, fnv: fnv}
	var lay layout
	for _, a := range args {
		if a.t != nil {
			if _, isTuple := a.t.(*types.Tuple); isTuple {
				fc.errorf(pos, "a multi-value call as an argument list is unsupported")
				return expr{}
			}
		}
		switch {
		case a.r != nil && a.inSlot:
			cs.refMoves = append(cs.refMoves, move{to: lay.slot(rRef), from: a.slot})
		case a.r != nil:
			cs.evals = append(cs.evals, argCode{slot: lay.slot(rRef), r: a.r})
		case a.inSlot:
			cs.intMoves = append(cs.intMoves, move{to: lay.slot(rInt), from: a.slot})
		default:
			cs.evals = append(cs.evals, argCode{slot: lay.slot(rInt), i: a.slotInt()})
		}
	}
	res, call := sig.Results(), cs.run()
	e := expr{t: res, do: call}
	switch res.Len() {
	case 0:
		return e
	case 1:
		e.t = res.At(0).Type()
		switch rep, _ := reprOf(e.t); rep {
		case rRef:
			e.r = func(fr *frame) any { call(fr); return fr.m.rr[0] }
			e.into = func(s int) stmt { return func(fr *frame) ctl { call(fr); fr.refs[s] = fr.m.rr[0]; return ctlNext } }
			return e
		case rBool:
			e.b = func(fr *frame) bool { call(fr); return fr.m.ri[0] != 0 }
		default:
			e.i = func(fr *frame) uint64 { call(fr); return fr.m.ri[0] }
		}
		e.into = func(s int) stmt { return func(fr *frame) ctl { call(fr); fr.ints[s] = fr.m.ri[0]; return ctlNext } }
		return e
	}
	if res.Len() > fc.maxResults {
		fc.compiler.maxResults = res.Len()
	}
	return e
}

func (fc *fnCompiler) convert(v expr, t types.Type, pos token.Pos) expr {
	if isUntypedNil(v.t) {
		return fc.as(v, t)
	}
	if k, ok := intKind(t); ok && v.i != nil {
		// Both forms are canonical, so converting is renormalising, which
		// to a 64-bit kind changes nothing: the operand, slot and all.
		v.t = t
		if kindWidth(k) == 64 {
			return v
		}
		i, c := v.i, canonOf(k)
		return expr{t: t, i: func(fr *frame) uint64 { return c.of(i(fr)) }}
	}
	rep, ok := reprOf(t)
	_, basic := t.Underlying().(*types.Basic)
	switch {
	case ok && basic && rep == rBool && v.b != nil,
		ok && basic && rep == rRef && v.r != nil && types.Identical(t.Underlying(), v.t.Underlying()):
		v.t = t
		return v
	case !v.failed():
		fc.errorf(pos, "unsupported conversion to %s", t)
	}
	return expr{}
}

func (fc *fnCompiler) builtin(name string, call *ast.CallExpr, t types.Type, sub func([]expr) []expr) expr {
	pos := call.Pos()
	switch name {
	case "len", "cap":
		x := sub([]expr{fc.expr(call.Args[0])})[0]
		v := x.r
		var n intFn
		switch u := x.t.Underlying().(type) {
		case *types.Slice:
			rep, _ := reprOf(u.Elem())
			switch {
			case rep == rRef && name == "len":
				n = func(fr *frame) uint64 { return uint64(len(v(fr).([]any))) }
			case rep == rRef:
				n = func(fr *frame) uint64 { return uint64(cap(v(fr).([]any))) }
			case name == "len":
				n = func(fr *frame) uint64 { return uint64(len(v(fr).([]uint64))) }
			default:
				n = func(fr *frame) uint64 { return uint64(cap(v(fr).([]uint64))) }
			}
		case *types.Basic:
			if u.Info()&types.IsString != 0 && name == "len" {
				n = func(fr *frame) uint64 { return uint64(len(v(fr).(string))) }
			}
		}
		if n == nil {
			if v != nil {
				fc.errorf(pos, "%s of unsupported value", name)
			}
			return expr{}
		}
		return expr{t: t, i: n}

	case "append":
		ops := make([]expr, len(call.Args))
		for k, a := range call.Args {
			ops[k] = fc.expr(a)
		}
		ops = sub(ops)
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			fc.errorf(pos, "append to non-slice value")
			return expr{}
		}
		spread := call.Ellipsis.IsValid()
		if rep, _ := reprOf(sl.Elem()); rep == rRef {
			if spread {
				return expr{t: t, r: appendSlice[any](ops[0].r, fc.as(ops[1], t).r, pos)}
			}
			elems := make([]refFn, len(ops)-1)
			for k, op := range ops[1:] {
				elems[k] = fc.as(op, sl.Elem()).r
			}
			return expr{t: t, r: appendTo(ops[0].r, elems, pos)}
		}
		if spread {
			return expr{t: t, r: appendSlice[uint64](ops[0].r, fc.as(ops[1], t).r, pos)}
		}
		elems := make([]intFn, len(ops)-1)
		for k, op := range ops[1:] {
			elems[k] = op.slotInt()
		}
		return expr{t: t, r: appendTo(ops[0].r, elems, pos)}

	case "make":
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			fc.errorf(pos, "make of non-slice type is unsupported")
			return expr{}
		}
		var sizes []expr
		for _, a := range call.Args[1:] {
			sizes = append(sizes, fc.expr(a))
		}
		sizes = sub(sizes)
		length := sizes[0].i
		capacity := length
		if len(sizes) > 1 {
			capacity = sizes[1].i
		}
		size := func(fr *frame) (int, int) {
			n, c := length(fr), capacity(fr)
			if n > c || c > maxHostElems {
				fr.m.faultf(pos, "make with invalid length")
			}
			fr.m.grow(c, pos)
			return int(n), int(c)
		}
		if rep := fc.repr(sl.Elem(), pos); rep != rRef {
			return expr{t: t, r: func(fr *frame) any { n, c := size(fr); return make([]uint64, n, c) }}
		}
		zero := zeroRef(sl.Elem())
		return expr{t: t, r: func(fr *frame) any {
			n, c := size(fr)
			s := make([]any, n, c)
			for i := range s {
				s[i] = zero
			}
			return s
		}}
	}
	fc.errorf(pos, "unsupported builtin %s", name)
	return expr{}
}

// appendTo compiles append(base, elems...) as one host append, so
// growth and aliasing are Go's own.
func appendTo[T any](base refFn, elems []func(*frame) T, pos token.Pos) refFn {
	if len(elems) == 1 {
		elem := elems[0]
		return func(fr *frame) any {
			s, x := base(fr).([]T), elem(fr)
			fr.m.grow(1, pos)
			return append(s, x)
		}
	}
	return func(fr *frame) any {
		s, xs := base(fr).([]T), evalAll(elems, fr)
		fr.m.grow(uint64(len(xs)), pos)
		return append(s, xs...)
	}
}

// appendSlice compiles append(base, other...).
func appendSlice[T any](base, other refFn, pos token.Pos) refFn {
	return func(fr *frame) any {
		s, o := base(fr).([]T), other(fr).([]T)
		fr.m.grow(uint64(len(o)), pos)
		return append(s, o...)
	}
}

// ---- cxl API lowering ----

// thread returns the simulated thread a cxl operation runs on.
func (m *machine) thread(name string, pos token.Pos) *core.Thread {
	if m.t == nil {
		m.faultf(pos, "cxl.%s runs on a simulated thread; it cannot be called during setup (use Machine.Spawn)", name)
	}
	return m.t
}

// setup checks that a Region or Machine method runs in the entry
// function's phase.
func (m *machine) setup(name string, pos token.Pos) {
	if m.t != nil {
		m.faultf(pos, "cxl: %s is setup-only (call it from the entry function, not from a spawned thread)", name)
	}
}

// The thread operations, bound to their core.Thread methods by shape.
var (
	cxlLoads = map[string]func(*core.Thread, core.Addr) uint64{
		"Load8":  func(t *core.Thread, a core.Addr) uint64 { return uint64(t.Load8(a)) },
		"Load16": func(t *core.Thread, a core.Addr) uint64 { return uint64(t.Load16(a)) },
		"Load32": func(t *core.Thread, a core.Addr) uint64 { return uint64(t.Load32(a)) },
		"Load64": (*core.Thread).Load64,
	}
	cxlStores = map[string]func(*core.Thread, core.Addr, uint64){
		"Store8":  func(t *core.Thread, a core.Addr, v uint64) { t.Store8(a, uint8(v)) },
		"Store16": func(t *core.Thread, a core.Addr, v uint64) { t.Store16(a, uint16(v)) },
		"Store32": func(t *core.Thread, a core.Addr, v uint64) { t.Store32(a, uint32(v)) },
		"Store64": (*core.Thread).Store64,
	}
	cxlFlushes = map[string]func(*core.Thread, core.Addr){
		"Flush":    (*core.Thread).CLFlush,
		"FlushOpt": (*core.Thread).CLFlushOpt,
		"CLWB":     (*core.Thread).CLWB,
	}
	cxlFences = map[string]func(*core.Thread){
		"Fence":     (*core.Thread).SFence,
		"MFence":    (*core.Thread).MFence,
		"Yield":     (*core.Thread).Yield,
		"Failpoint": (*core.Thread).Yield,
	}
	cxlRMWs = map[string]func(*core.Thread, core.Addr, uint64) uint64{
		"Swap64":     (*core.Thread).Swap64,
		"FetchAdd64": (*core.Thread).FetchAdd64,
		"FetchAdd32": func(t *core.Thread, a core.Addr, d uint64) uint64 { return uint64(t.FetchAdd32(a, uint32(d))) },
	}
	cxlCASes = map[string]func(*core.Thread, core.Addr, uint64, uint64) (uint64, bool){
		"CAS64": (*core.Thread).CAS64,
		"CAS32": func(t *core.Thread, a core.Addr, old, new uint64) (uint64, bool) {
			prev, ok := t.CAS32(a, uint32(old), uint32(new))
			return uint64(prev), ok
		},
	}
)

// cxlFunc compiles a package-level cxl function — the thread operations
// that lower to simulated events. Arguments are evaluated before the
// phase check, the phase check comes before the event.
func (fc *fnCompiler) cxlFunc(name string, ops []expr, spread bool, t types.Type, pos token.Pos) expr {
	ints := make([]intFn, len(ops))
	for k, op := range ops {
		ints[k] = op.i
	}
	// The address operand is read in place when slotted.
	var p opnd
	if len(ops) > 0 {
		p = ops[0].opnd()
	}
	if f, ok := cxlLoads[name]; ok {
		return expr{t: t,
			i: func(fr *frame) uint64 { a := core.Addr(p.get(fr)); return f(fr.m.thread(name, pos), a) },
			into: func(d int) stmt {
				return func(fr *frame) ctl {
					a := core.Addr(p.get(fr))
					fr.ints[d] = f(fr.m.thread(name, pos), a)
					return ctlNext
				}
			}}
	}
	if f, ok := cxlStores[name]; ok {
		val := ints[1]
		return expr{t: t, do: func(fr *frame) ctl {
			a, v := core.Addr(p.get(fr)), val(fr)
			th := fr.m.thread(name, pos)
			fr.m.sites.recordStore(a, pos)
			f(th, a, v)
			return ctlNext
		}}
	}
	if f, ok := cxlFlushes[name]; ok {
		return expr{t: t, do: func(fr *frame) ctl {
			a := core.Addr(p.get(fr))
			th := fr.m.thread(name, pos)
			fr.m.sites.recordFlush(a, pos)
			f(th, a)
			return ctlNext
		}}
	}
	if f, ok := cxlFences[name]; ok {
		var arg stmt
		if len(ops) > 0 {
			arg = ops[0].run() // Failpoint's name
		}
		return expr{t: t, do: func(fr *frame) ctl {
			if arg != nil {
				arg(fr)
			}
			f(fr.m.thread(name, pos))
			return ctlNext
		}}
	}
	if f, ok := cxlRMWs[name]; ok {
		val := ints[1]
		return expr{t: t, i: func(fr *frame) uint64 {
			a, v := core.Addr(p.get(fr)), val(fr)
			return f(fr.m.thread(name, pos), a, v)
		}}
	}
	if f, ok := cxlCASes[name]; ok {
		old, new := ints[1], ints[2]
		return expr{t: t, do: func(fr *frame) ctl {
			a, o, n := core.Addr(p.get(fr)), old(fr), new(fr)
			prev, swapped := f(fr.m.thread(name, pos), a, o, n)
			fr.m.ri[0], fr.m.ri[1] = prev, b2u(swapped)
			return ctlNext
		}}
	}
	switch name {
	case "Alloc":
		size := ints[0]
		return expr{t: t, i: func(fr *frame) uint64 { n := size(fr); return uint64(fr.m.thread(name, pos).Alloc(n)) }}
	case "AllocAligned":
		size, align := ints[0], ints[1]
		return expr{t: t, i: func(fr *frame) uint64 {
			n, al := size(fr), align(fr)
			return uint64(fr.m.thread(name, pos).AllocAligned(n, al))
		}}
	case "Assert", "Fail":
		cond := func(*frame) bool { return false }
		if name == "Assert" {
			cond, ops = ops[0].b, ops[1:]
		}
		format, rest := ops[0].r, fmtOperands(ops[1:])
		return expr{t: t, do: func(fr *frame) ctl {
			c, f, base := cond(fr), format(fr).(string), evalOperands(rest, fr)
			m := fr.m
			th := m.thread(name, pos)
			vals := m.args[base:]
			m.args = m.args[:base]
			if !c {
				th.Fail(f, boxOperands(rest, vals)...)
			}
			return ctlNext
		}}
	case "Join":
		mach := ops[0].r
		return expr{t: t, b: func(fr *frame) bool {
			target := mach(fr).(*core.Machine)
			th := fr.m.thread(name, pos)
			if target == nil {
				fr.m.faultf(pos, "cxl.Join needs a *cxl.Machine argument")
			}
			return th.Join(target)
		}}
	case "JoinAll":
		refs := make([]operand, len(ops))
		for k, op := range ops {
			refs[k] = operand{r: op.r}
		}
		return expr{t: t, do: func(fr *frame) ctl {
			base := evalOperands(refs, fr)
			m := fr.m
			th := m.thread(name, pos)
			targets := m.targets[:0]
			for k, v := range m.args[base:] {
				if spread && k == len(refs)-1 {
					for _, x := range v.r.([]any) {
						targets = append(targets, x.(*core.Thread))
					}
				} else {
					targets = append(targets, v.r.(*core.Thread))
				}
			}
			m.args, m.targets = m.args[:base], targets
			for i, target := range targets {
				if target == nil {
					m.faultf(pos, "cxl.JoinAll argument %d is not a *cxl.Thread", i+1)
				}
			}
			th.JoinThreads(targets...)
			return ctlNext
		}}
	case "RunNative":
		fc.errorf(pos, "cxl.RunNative is native-only: the checker calls the entry function directly (keep RunNative inside func main)")
		return expr{}
	}
	fc.errorf(pos, "unsupported cxl function %s", name)
	return expr{}
}

// operand is one variadic operand of Assert, Fail or JoinAll,
// evaluated where the call is and boxed only if it reports: an integer
// of kind, a bool, or a reference, passed on as is unless byName says
// it prints as its type's name.
type operand struct {
	i      intFn
	kind   types.BasicKind
	b      boolFn
	r      refFn
	byName string
}

// fmtOperands compiles Assert/Fail's variadic arguments.
func fmtOperands(ops []expr) []operand {
	out := make([]operand, len(ops))
	for k, op := range ops {
		switch {
		case op.i != nil:
			out[k] = operand{i: op.i, kind: types.Uint64}
			if kind, ok := intKind(op.t); ok {
				out[k].kind = kind
			}
		case op.b != nil:
			out[k] = operand{b: op.b}
		default:
			out[k] = operand{r: op.r}
			if _, ok := op.t.Underlying().(*types.Basic); !ok { // not a string or the untyped nil
				out[k].byName = op.t.String()
			}
		}
	}
	return out
}

// evalOperands evaluates ops in Go's order onto the machine's args
// stack, unboxed, and returns where they start there. The caller pops
// them: a call among the operands pushes and pops its own above them.
func evalOperands(ops []operand, fr *frame) (base int) {
	base = len(fr.m.args)
	for k := range ops {
		var v cell
		switch op := &ops[k]; {
		case op.i != nil:
			v.n = op.i(fr)
		case op.b != nil:
			v.n = b2u(op.b(fr))
		default:
			v.r = op.r(fr)
		}
		fr.m.args = append(fr.m.args, v)
	}
	return base
}

// boxOperands turns evaluated operands into the Go values compiled code
// passing the same expressions would hand to fmt.
func boxOperands(ops []operand, vals []cell) []any {
	out := make([]any, len(ops))
	for k := range ops {
		switch op := &ops[k]; {
		case op.i != nil:
			out[k] = boxInt(vals[k].n, op.kind)
		case op.b != nil:
			out[k] = vals[k].n != 0
		case op.byName != "":
			out[k] = op.byName
		default:
			out[k] = vals[k].r
		}
	}
	return out
}

// cxlMethod compiles a method on a cxl API object (Region, Machine,
// Mutex); ops[0] is the receiver.
func (fc *fnCompiler) cxlMethod(fn *types.Func, ops []expr, t types.Type, pos token.Pos) expr {
	recv := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer).Elem().(*types.Named).Obj().Name()
	name := recv + "." + fn.Name()
	self := ops[0].r
	arg := func(k int) intFn { return ops[k].i }
	str := func(k int) refFn { return ops[k].r }
	switch name {
	case "Region.Alloc":
		size := arg(1)
		return expr{t: t, i: func(fr *frame) uint64 {
			r, n := self(fr), size(fr)
			return uint64(region(r, fr, name, pos).Alloc(n))
		}}
	case "Region.AllocAligned":
		size, align := arg(1), arg(2)
		return expr{t: t, i: func(fr *frame) uint64 {
			r, n, al := self(fr), size(fr), align(fr)
			return uint64(region(r, fr, name, pos).AllocAligned(n, al))
		}}
	case "Region.Init64":
		addr, val := arg(1), arg(2)
		return expr{t: t, do: func(fr *frame) ctl {
			r, a, v := self(fr), addr(fr), val(fr)
			region(r, fr, name, pos).Init64(core.Addr(a), v)
			return ctlNext
		}}
	case "Region.NewMachine":
		mname := str(1)
		return expr{t: t, r: func(fr *frame) any {
			r, n := self(fr), mname(fr).(string)
			return region(r, fr, name, pos).NewMachine(n)
		}}
	case "Region.NewMutex":
		mname := str(1)
		return expr{t: t, r: func(fr *frame) any {
			r, n := self(fr), mname(fr).(string)
			p := region(r, fr, name, pos)
			fr.m.grow(1, pos)
			fr.m.sites.recordMutex(n, pos)
			return p.NewMutex(n)
		}}

	case "Machine.Spawn":
		tname, body := str(1), str(2)
		return expr{t: t, r: func(fr *frame) any {
			mach, n, cl := self(fr).(*core.Machine), tname(fr).(string), body(fr).(*closure)
			m := fr.m
			m.setup(name, pos)
			if mach == nil || cl == nil {
				m.faultf(pos, "cxl: Machine.Spawn needs a func() argument")
			}
			m.grow(1, pos)
			// The thread starts after setup has given m back.
			sp := m.arena.spawn()
			sp.src, sp.sites, sp.arena, sp.cl, sp.pos = m.src, m.sites, m.arena, cl, pos
			return mach.Thread(n, sp.run)
		}}

	case "Mutex.Lock":
		return expr{t: t, b: func(fr *frame) bool { mu := self(fr); return mutex(mu, fr, pos).Lock(fr.m.thread(name, pos)) }}
	case "Mutex.TryLock":
		return expr{t: t, do: func(fr *frame) ctl {
			mu := self(fr)
			acquired, ownerFailed := mutex(mu, fr, pos).TryLock(fr.m.thread(name, pos))
			fr.m.ri[0], fr.m.ri[1] = b2u(acquired), b2u(ownerFailed)
			return ctlNext
		}}
	case "Mutex.Unlock":
		return expr{t: t, do: func(fr *frame) ctl { mu := self(fr); mutex(mu, fr, pos).Unlock(fr.m.thread(name, pos)); return ctlNext }}
	case "Mutex.OwnerFailed":
		return expr{t: t, b: func(fr *frame) bool {
			mu := self(fr)
			fr.m.thread(name, pos)
			return mutex(mu, fr, pos).OwnerFailed()
		}}
	}
	fc.errorf(pos, "unsupported cxl method %s", fn.Name())
	return expr{}
}

// region unwraps a *cxl.Region receiver during setup.
func region(v any, fr *frame, name string, pos token.Pos) *core.Program {
	fr.m.setup(name, pos)
	p := v.(*core.Program)
	if p == nil {
		fr.m.faultf(pos, "cxl: %s on a nil *cxl.Region", name)
	}
	return p
}

func mutex(v any, fr *frame, pos token.Pos) *core.Mutex {
	mu := v.(*core.Mutex)
	if mu == nil {
		fr.m.faultf(pos, "cxl: operation on a nil *cxl.Mutex")
	}
	return mu
}
