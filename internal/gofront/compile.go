package gofront

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/core"
)

// The compile step of Load: every checked function is lowered once into
// closures with everything static resolved — locals to frame slots,
// constants folded, struct fields to indexes, integer kinds baked into
// the closure, calls bound to their callee — so running a program walks
// no syntax and boxes no integer. Whatever cannot be lowered is a
// positioned Diagnostic here, never a fault mid-exploration.

type (
	intFn  = func(*frame) uint64
	boolFn = func(*frame) bool
	refFn  = func(*frame) any
	stmt   = func(*frame) ctl
)

// ctl is statement-level control flow.
type ctl uint8

const (
	ctlNext ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// expr is one compiled expression: its static type and the closure
// matching the type's repr, or do for a call yielding no value or
// several (which it leaves in the machine's result registers). A call
// yielding one value has do as well: the call for its effects alone,
// which is what a call statement runs. An expr with no closure is the
// residue of a reported diagnostic.
//
// inSlot is the operand form: the value already sits in the frame, in
// fr.ints[slot] for an integer or a bool, fr.refs[slot] for a reference,
// and a consumer reads it there instead of calling i, b or r. That is an
// unboxed local, a spilled temporary, or a folded integer or bool
// constant, which gets an int slot of its own that every frame of its
// function is made with (fnCode.ints), so one form serves variables and
// constants alike. Reading a slot has no effects, and nothing another
// operand's evaluation does can change one (a callee runs on frames of
// its own, and a local a func literal captures lives in a cell, never in
// a slot), so a slotted operand may be read before or after its
// neighbours' calls: the operators below swap operands freely when one
// of them is slotted.
//
// Two consumers take a fused form instead of the closure: into, set on a
// call of one result, a cxl load and a result register read, compiles
// "store the value into slot s" as one closure (the call then the read
// of its result register; the load straight into the slot), which an
// assignment to an unboxed variable uses; test is a comparison of two slotted operands,
// which an if or a for statement makes in place instead of calling b.
type expr struct {
	t      types.Type
	i      intFn
	b      boolFn
	r      refFn
	do     stmt
	slot   int
	inSlot bool
	into   func(s int) stmt
	test   *test
}

// test is x op y over two int slots, op one of ==, !=, < and <= (> and
// >= come with the slots swapped), each side xor flip: the sign bit for
// a signed ordering, which orders two's complement as unsigned does.
type test struct {
	op   token.Token
	x, y int
	flip uint64
}

func (t *test) holds(fr *frame) bool {
	x, y := fr.ints[t.x]^t.flip, fr.ints[t.y]^t.flip
	switch t.op {
	case token.EQL:
		return x == y
	case token.NEQ:
		return x != y
	case token.LSS:
		return x < y
	}
	return x <= y
}

// slotted returns e with the operand form: its value is in slot s.
func (e expr) slotted(s int) expr {
	e.slot, e.inSlot = s, true
	return e
}

// failed says e is the residue of a diagnostic.
func (e expr) failed() bool { return e.i == nil && e.b == nil && e.r == nil && e.do == nil }

// run returns the statement evaluating e for its effects alone.
func (e expr) run() stmt {
	switch {
	case e.do != nil:
		return e.do
	case e.i != nil:
		i := e.i
		return func(fr *frame) ctl { i(fr); return ctlNext }
	case e.b != nil:
		b := e.b
		return func(fr *frame) ctl { b(fr); return ctlNext }
	case e.r != nil:
		r := e.r
		return func(fr *frame) ctl { r(fr); return ctlNext }
	}
	return nil
}

// slotInt returns e as the integer a slot stores (bools as 0 or 1).
func (e expr) slotInt() intFn {
	if b := e.b; b != nil {
		if s := e.slot; e.inSlot {
			return func(fr *frame) uint64 { return fr.ints[s] }
		}
		return func(fr *frame) uint64 { return b2u(b(fr)) }
	}
	return e.i
}

// stored is the expr reading a value of type t back from where values
// are kept — a cell, a slice element, a register: i reads an integer or
// a bool (kept as 0 or 1), r anything else.
func stored(t types.Type, i intFn, r refFn) expr {
	switch rep, _ := reprOf(t); rep {
	case rRef:
		return expr{t: t, r: r}
	case rBool:
		return expr{t: t, b: func(fr *frame) bool { return i(fr) != 0 }}
	}
	return expr{t: t, i: i}
}

// inFrame is the expr reading a value of type t from slot s of the
// frame, in the operand form.
func inFrame(t types.Type, s int) expr {
	e := expr{t: t}
	switch rep, _ := reprOf(t); rep {
	case rRef:
		e.r = func(fr *frame) any { return fr.refs[s] }
	case rBool:
		e.b = func(fr *frame) bool { return fr.ints[s] != 0 }
	default:
		e.i = func(fr *frame) uint64 { return fr.ints[s] }
	}
	return e.slotted(s)
}

// layout counts the slots of a frame.
type layout struct{ nInts, nRefs int }

func (l *layout) slot(rep repr) int {
	if rep == rRef {
		l.nRefs++
		return l.nRefs - 1
	}
	l.nInts++
	return l.nInts - 1
}

type compiler struct {
	s          *Source
	info       *types.Info
	diags      DiagnosticList
	funcs      map[*types.Func]*fnCode // every declared function and method
	boxed      map[*types.Var]bool     // locals some func literal captures
	nfuncs     int
	maxResults int
	deferInts  int
	deferRefs  int
}

// varRef is where a local lives: a slot of its repr's array, or — for a
// captured variable — a refs slot holding its *cell.
type varRef struct {
	slot  int
	rep   repr
	boxed bool
	t     types.Type
}

// fnCompiler compiles one function body; vars is its symbol table.
type fnCompiler struct {
	*compiler
	code    *fnCode
	lay     layout
	parent  *fnCompiler // the enclosing function of a func literal
	sig     *types.Signature
	vars    map[*types.Var]varRef
	capFrom []int          // per captured cell, the parent's refs slot holding it
	consts  map[uint64]int // the int slot of each folded constant
}

// errorf reports what cannot be lowered: one diagnostic per source line,
// the first found, since what else a line then draws (the variable a
// failed value was to initialise, say) is mostly the same mistake again.
func (c *compiler) errorf(pos token.Pos, format string, args ...any) {
	p := c.s.pos(pos)
	for _, d := range c.diags {
		if d.Pos.Line == p.Line {
			return
		}
	}
	c.diags = append(c.diags, Diagnostic{Pos: p, Msg: fmt.Sprintf(format, args...)})
}

// compile lowers every declared function except main (native-only glue
// the checker never runs) and returns what could not be lowered.
func (s *Source) compile(file *ast.File, info *types.Info) DiagnosticList {
	// The registers hold two results at least: cxl.CAS64 and Mutex.TryLock
	// leave theirs there.
	c := &compiler{s: s, info: info, funcs: map[*types.Func]*fnCode{}, boxed: map[*types.Var]bool{}, maxResults: 2}
	var decls []*ast.FuncDecl
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil && fd.Name.Name == "main" {
			continue
		}
		obj, ok := info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		code := c.newCode(fd.Pos())
		code.self = &closure{fn: code}
		c.funcs[obj] = code
		if fd.Recv == nil {
			s.funcs[fd.Name.Name] = entryFunc{code: code, entry: s.entrySignature(obj.Type().(*types.Signature))}
		}
		decls = append(decls, fd)
	}
	for _, fd := range decls {
		c.findCaptures(fd)
	}
	for _, fd := range decls {
		obj := info.Defs[fd.Name].(*types.Func)
		fc := &fnCompiler{compiler: c, code: c.funcs[obj], sig: obj.Type().(*types.Signature), vars: map[*types.Var]varRef{}}
		fc.compileBody(fd.Recv, fd.Type, fd.Body)
	}
	s.nfuncs, s.maxResults = c.nfuncs, c.maxResults
	s.deferInts, s.deferRefs = c.deferInts, c.deferRefs
	sort.SliceStable(c.diags, func(i, j int) bool {
		a, b := c.diags[i].Pos, c.diags[j].Pos
		return a.Line < b.Line || a.Line == b.Line && a.Column < b.Column
	})
	if len(c.diags) > maxDiagnostics {
		c.diags = c.diags[:maxDiagnostics]
	}
	return c.diags
}

func (c *compiler) newCode(pos token.Pos) *fnCode {
	c.nfuncs++
	return &fnCode{id: c.nfuncs - 1, pos: pos}
}

// findCaptures marks every local that a func literal uses from an
// enclosing function: those live in heap cells, all others in slots.
func (c *compiler) findCaptures(fd *ast.FuncDecl) {
	owner := map[*types.Var]ast.Node{}
	stack := []ast.Node{fd}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			stack = append(stack, x)
			ast.Inspect(x.Type, visit)
			ast.Inspect(x.Body, visit)
			stack = stack[:len(stack)-1]
			return false
		case *ast.Ident:
			if v, ok := c.info.Defs[x].(*types.Var); ok {
				owner[v] = stack[len(stack)-1]
			} else if v, ok := c.info.Uses[x].(*types.Var); ok {
				if o, local := owner[v]; local && o != stack[len(stack)-1] {
					c.boxed[v] = true
				}
			}
		}
		return true
	}
	ast.Inspect(fd, visit)
}

// reprOf maps a static type to its run-time representation; false means
// the subset has no values of that type.
func reprOf(t types.Type) (repr, bool) {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if _, ok := intKind(t); ok {
			return rInt, true
		}
		switch u.Kind() {
		case types.Bool, types.UntypedBool:
			return rBool, true
		case types.String, types.UntypedString, types.UntypedNil:
			return rRef, true
		}
	case *types.Slice:
		_, ok := reprOf(u.Elem())
		return rRef, ok
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Struct)
		return rRef, ok
	case *types.Signature:
		return rRef, true
	}
	return 0, false
}

// repr is reprOf with the diagnostic.
func (c *compiler) repr(t types.Type, pos token.Pos) repr {
	rep, ok := reprOf(t)
	if !ok {
		c.errorf(pos, "values of type %s are unsupported", t)
	}
	return rep
}

// ---- functions and variables ----

// compileBody lays out the parameters, compiles the body and fills in
// fc.code.
func (fc *fnCompiler) compileBody(recv *ast.FieldList, ft *ast.FuncType, body *ast.BlockStmt) {
	// Parameters take the first slots in declaration order; a captured
	// one is then moved into its cell by the prologue.
	var prologue []stmt
	var boxedParams []*types.Var
	for _, fl := range []*ast.FieldList{recv, ft.Params} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				fc.lay.slot(fc.repr(fc.info.TypeOf(field.Type), field.Pos()))
			}
			for _, name := range field.Names {
				v := fc.info.Defs[name].(*types.Var)
				ref := varRef{rep: fc.repr(v.Type(), name.Pos()), t: v.Type()}
				ref.slot = fc.lay.slot(ref.rep)
				fc.vars[v] = ref
				if fc.boxed[v] {
					boxedParams = append(boxedParams, v)
				}
			}
		}
	}
	for _, v := range boxedParams {
		raw := fc.vars[v]
		prologue = append(prologue, fc.initVar(fc.declare(v, v.Pos()), fc.loadVar(raw)))
	}
	if res := fc.sig.Results(); res != nil {
		if res.Len() > fc.maxResults {
			fc.compiler.maxResults = res.Len()
		}
		for i := 0; i < res.Len(); i++ {
			fc.repr(res.At(i).Type(), ft.Results.Pos())
		}
	}
	stmts := append(prologue, fc.stmts(body.List)...)
	fc.code.body = seq(stmts)
	if code := fc.code; code.hasDefer {
		code.nResults = fc.sig.Results().Len()
		code.saveInts, code.saveRefs = fc.lay.nInts, fc.lay.nRefs
		fc.lay.nInts += code.nResults
		fc.lay.nRefs += code.nResults
	}
	fc.code.nInts, fc.code.nRefs = fc.lay.nInts, fc.lay.nRefs
	fc.code.ints = make([]uint64, fc.lay.nInts)
	for v, s := range fc.consts {
		fc.code.ints[s] = v
	}
}

// constSlot returns the int slot holding v in every frame of the
// function.
func (fc *fnCompiler) constSlot(v uint64) int {
	s, ok := fc.consts[v]
	if !ok {
		if fc.consts == nil {
			fc.consts = map[uint64]int{}
		}
		s = fc.lay.slot(rInt)
		fc.consts[v] = s
	}
	return s
}

// declare gives a newly declared local its slot.
func (fc *fnCompiler) declare(v *types.Var, pos token.Pos) varRef {
	ref := varRef{rep: fc.repr(v.Type(), pos), boxed: fc.boxed[v], t: v.Type()}
	if ref.boxed {
		ref.slot = fc.lay.slot(rRef)
	} else {
		ref.slot = fc.lay.slot(ref.rep)
	}
	fc.vars[v] = ref
	return ref
}

// lookup resolves a use of a local. One declared by an enclosing
// function is captured: its cell gets a refs slot here, filled at call
// time from the closure value, and every function in between captures
// it too.
func (fc *fnCompiler) lookup(v *types.Var) (varRef, bool) {
	if ref, ok := fc.vars[v]; ok {
		return ref, true
	}
	if fc.parent == nil {
		return varRef{}, false
	}
	outer, ok := fc.parent.lookup(v)
	if !ok {
		return varRef{}, false
	}
	ref := outer
	ref.slot = fc.lay.slot(rRef)
	fc.vars[v] = ref
	fc.code.capSlots = append(fc.code.capSlots, ref.slot)
	fc.capFrom = append(fc.capFrom, outer.slot)
	return ref, true
}

func (fc *fnCompiler) loadVar(ref varRef) expr {
	s := ref.slot
	if ref.boxed {
		return stored(ref.t,
			func(fr *frame) uint64 { return fr.refs[s].(*cell).n },
			func(fr *frame) any { return fr.refs[s].(*cell).r })
	}
	return inFrame(ref.t, s)
}

// storeVar compiles ref = v. A slotted v is copied slot to slot, and
// one with a fused store makes it.
func (fc *fnCompiler) storeVar(ref varRef, v expr) stmt {
	s, from := ref.slot, v.slot
	if v.into != nil && !ref.boxed {
		return v.into(s)
	}
	if ref.rep == rRef {
		val := v.r
		switch {
		case ref.boxed:
			return func(fr *frame) ctl { fr.refs[s].(*cell).r = val(fr); return ctlNext }
		case v.inSlot:
			return func(fr *frame) ctl { fr.refs[s] = fr.refs[from]; return ctlNext }
		}
		return func(fr *frame) ctl { fr.refs[s] = val(fr); return ctlNext }
	}
	val := v.slotInt()
	switch {
	case ref.boxed:
		return func(fr *frame) ctl { fr.refs[s].(*cell).n = val(fr); return ctlNext }
	case v.inSlot:
		return func(fr *frame) ctl { fr.ints[s] = fr.ints[from]; return ctlNext }
	}
	return func(fr *frame) ctl { fr.ints[s] = val(fr); return ctlNext }
}

// initVar is storeVar for a declaration: a captured variable gets a
// fresh cell each time its declaration runs, so closures made by an
// earlier iteration keep theirs.
func (fc *fnCompiler) initVar(ref varRef, v expr) stmt {
	if !ref.boxed {
		return fc.storeVar(ref, v)
	}
	s := ref.slot
	if ref.rep == rRef {
		val := v.r
		return func(fr *frame) ctl {
			x := val(fr)
			c := fr.m.arena.cells.one()
			c.r, fr.refs[s] = x, c
			return ctlNext
		}
	}
	val := v.slotInt()
	return func(fr *frame) ctl {
		x := val(fr)
		c := fr.m.arena.cells.one()
		c.n, fr.refs[s] = x, c
		return ctlNext
	}
}

// spill compiles "evaluate e once into a fresh slot of lay": save does
// that (reading operands from one frame, writing the slot in another —
// the same one for an assignment's temporaries, the deferred call's own
// for a defer statement), and the returned expr reads the slot back.
func spill(e expr, lay *layout) (save func(from, to *frame), tmp expr) {
	if val := e.r; val != nil {
		s := lay.slot(rRef)
		tmp = expr{t: e.t, r: func(fr *frame) any { return fr.refs[s] }}
		return func(from, to *frame) { to.refs[s] = val(from) }, tmp.slotted(s)
	}
	s, val := lay.slot(rInt), e.slotInt()
	tmp = expr{t: e.t, i: func(fr *frame) uint64 { return fr.ints[s] }}
	if e.b != nil {
		tmp = expr{t: e.t, b: func(fr *frame) bool { return fr.ints[s] != 0 }}
	}
	return func(from, to *frame) { to.ints[s] = val(from) }, tmp.slotted(s)
}

// ---- statements ----

func seq(list []stmt) stmt {
	switch len(list) {
	case 0:
		return func(*frame) ctl { return ctlNext }
	case 1:
		return list[0]
	}
	return func(fr *frame) ctl {
		for _, s := range list {
			if c := s(fr); c != ctlNext {
				return c
			}
		}
		return ctlNext
	}
}

func (fc *fnCompiler) stmts(list []ast.Stmt) []stmt {
	out := make([]stmt, 0, len(list))
	for _, s := range list {
		if st := fc.stmt(s); st != nil {
			out = append(out, st)
		}
	}
	return out
}

func (fc *fnCompiler) block(b *ast.BlockStmt) stmt { return seq(fc.stmts(b.List)) }

// stmt compiles one statement; nil means it needs no code.
func (fc *fnCompiler) stmt(s ast.Stmt) stmt {
	switch st := s.(type) {
	case *ast.EmptyStmt:
		return nil
	case *ast.BlockStmt:
		return fc.block(st)
	case *ast.ExprStmt:
		return fc.expr(st.X).run()
	case *ast.DeclStmt:
		return fc.declStmt(st)
	case *ast.AssignStmt:
		return fc.assignStmt(st)
	case *ast.IncDecStmt:
		op := token.ADD
		if st.Tok == token.DEC {
			op = token.SUB
		}
		t := fc.info.TypeOf(st.X)
		one := fc.constant(constant.MakeInt64(1), t, st.Pos())
		return fc.opAssign(st.X, op, one, st.Pos())
	case *ast.IfStmt:
		return fc.ifStmt(st)
	case *ast.ForStmt:
		return fc.forStmt(st)
	case *ast.RangeStmt:
		return fc.rangeStmt(st)
	case *ast.SwitchStmt:
		return fc.switchStmt(st)
	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			return func(*frame) ctl { return ctlBreak }
		case token.CONTINUE:
			return func(*frame) ctl { return ctlContinue }
		}
		fc.errorf(st.Pos(), "unsupported branch statement %s", st.Tok)
		return nil
	case *ast.ReturnStmt:
		return fc.returnStmt(st)
	case *ast.DeferStmt:
		return fc.deferStmt(st)
	}
	fc.errorf(s.Pos(), "unsupported statement")
	return nil
}

func (fc *fnCompiler) declStmt(st *ast.DeclStmt) stmt {
	gd := st.Decl.(*ast.GenDecl)
	if gd.Tok != token.VAR {
		return nil // constants are folded, types need no code
	}
	var out []stmt
	for _, spec := range gd.Specs {
		vs := spec.(*ast.ValueSpec)
		lhs := make([]ast.Expr, len(vs.Names))
		for i, name := range vs.Names {
			lhs[i] = name
		}
		if len(vs.Values) > 0 {
			out = append(out, fc.assign(lhs, vs.Values, true, vs.Pos()))
			continue
		}
		for _, name := range vs.Names {
			v := fc.info.Defs[name].(*types.Var)
			if _, ok := reprOf(v.Type()); !ok {
				fc.errorf(name.Pos(), "cannot zero-initialize a variable of type %s", v.Type())
			}
			if name.Name == "_" {
				continue
			}
			out = append(out, fc.initVar(fc.declare(v, name.Pos()), fc.zero(v.Type())))
		}
	}
	return seq(out)
}

func (fc *fnCompiler) ifStmt(st *ast.IfStmt) stmt {
	var init stmt
	if st.Init != nil {
		init = fc.stmt(st.Init)
	}
	c := fc.expr(st.Cond)
	cond, t := c.b, c.test
	then := fc.block(st.Body)
	var els stmt
	if st.Else != nil {
		els = fc.stmt(st.Else)
	}
	if t != nil && init == nil {
		return func(fr *frame) ctl {
			if t.holds(fr) {
				return then(fr)
			}
			if els != nil {
				return els(fr)
			}
			return ctlNext
		}
	}
	return func(fr *frame) ctl {
		if init != nil {
			init(fr)
		}
		if cond(fr) {
			return then(fr)
		}
		if els != nil {
			return els(fr)
		}
		return ctlNext
	}
}

// cond compiles a boolean expression to its closure.
func (fc *fnCompiler) cond(e ast.Expr) boolFn { return fc.expr(e).b }

func (fc *fnCompiler) forStmt(st *ast.ForStmt) stmt {
	var init, post stmt
	// Go ≥1.22: each iteration has its own copy of the variables the
	// init statement declares. Only a captured one can tell, and for
	// those "its own copy" is a fresh cell seeded from the previous
	// iteration's, made just before the post statement.
	var fresh []int
	if st.Init != nil {
		init = fc.stmt(st.Init)
		if as, ok := st.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
			for _, lhs := range as.Lhs {
				if v, ok := fc.info.Defs[lhs.(*ast.Ident)].(*types.Var); ok && fc.boxed[v] {
					fresh = append(fresh, fc.vars[v].slot)
				}
			}
		}
	}
	var cond boolFn
	var t *test
	if st.Cond != nil {
		c := fc.expr(st.Cond)
		cond, t = c.b, c.test
	}
	if st.Post != nil {
		post = fc.stmt(st.Post)
	}
	body := fc.block(st.Body)
	pos := st.Pos()
	return func(fr *frame) ctl {
		if init != nil {
			init(fr)
		}
		for {
			fr.m.tick(pos)
			if t != nil {
				if !t.holds(fr) {
					return ctlNext
				}
			} else if cond != nil && !cond(fr) {
				return ctlNext
			}
			switch body(fr) {
			case ctlBreak:
				return ctlNext
			case ctlReturn:
				return ctlReturn
			}
			for _, s := range fresh {
				c := fr.m.arena.cells.one()
				*c, fr.refs[s] = *fr.refs[s].(*cell), c
			}
			if post != nil {
				post(fr)
			}
		}
	}
}

func (fc *fnCompiler) rangeStmt(st *ast.RangeStmt) stmt {
	if st.Tok == token.ASSIGN {
		fc.errorf(st.Pos(), "range with = assignment is unsupported (use :=)")
		return nil
	}
	x := fc.expr(st.X)
	// bind declares a := range variable and returns its initialiser
	// from the per-iteration value.
	bind := func(e ast.Expr, val func(t types.Type) expr) stmt {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		v := fc.info.Defs[id].(*types.Var)
		return fc.initVar(fc.declare(v, id.Pos()), val(v.Type()))
	}
	// The iteration state lives in two temporaries of the frame.
	iSlot := fc.lay.slot(rInt)
	index := func(t types.Type) expr { return inFrame(t, iSlot) }
	lp := &rangeLoop{pos: st.Pos(), iSlot: iSlot}

	if _, ok := intKind(x.t); ok && x.i != nil {
		// Range over an integer: the key takes 0..n-1, a negative n
		// iterates zero times.
		lp.setKey = bind(st.Key, index)
		count := x.i
		lp.n = func(fr *frame) int { return int(int64(count(fr))) }
		lp.body = fc.block(st.Body)
		return lp.run()
	}
	sl, ok := x.t.Underlying().(*types.Slice)
	if !ok || x.r == nil {
		if x.r != nil || x.i != nil || x.b != nil {
			fc.errorf(st.X.Pos(), "range over unsupported value")
		}
		return nil
	}
	// The slice is evaluated once, and kept in the frame as the value it
	// came as (reboxing its header would allocate); each iteration reads
	// its element from the shared backing array as it then is.
	sSlot := fc.lay.slot(rRef)
	src := x.r
	lp.setKey = bind(st.Key, index)
	lp.setVal = bind(st.Value, func(t types.Type) expr {
		return stored(t,
			func(fr *frame) uint64 { return fr.refs[sSlot].([]uint64)[fr.ints[iSlot]] },
			func(fr *frame) any { return fr.refs[sSlot].([]any)[fr.ints[iSlot]] })
	})
	lp.n = func(fr *frame) int { s := src(fr); fr.refs[sSlot] = s; return len(s.([]uint64)) }
	if rep, _ := reprOf(sl.Elem()); rep == rRef {
		lp.n = func(fr *frame) int { s := src(fr); fr.refs[sSlot] = s; return len(s.([]any)) }
	}
	lp.body = fc.block(st.Body)
	return lp.run()
}

// rangeLoop is one compiled range statement: n evaluates the range
// operand and returns the trip count, and each iteration sets the index
// temporary, the key and the value, then runs the body.
type rangeLoop struct {
	pos                  token.Pos
	iSlot                int
	n                    func(*frame) int
	setKey, setVal, body stmt
}

// run returns the loop as one closure, kept out of line for the reason
// callSite.run is: a copy of a closure made by inlining its maker gets
// none of its own calls inlined, and tick is on every iteration's path.
//
//go:noinline
func (lp *rangeLoop) run() stmt {
	return func(fr *frame) ctl {
		for i, end := 0, lp.n(fr); i < end; i++ {
			fr.m.tick(lp.pos)
			fr.ints[lp.iSlot] = uint64(i)
			if lp.setKey != nil {
				lp.setKey(fr)
			}
			if lp.setVal != nil {
				lp.setVal(fr)
			}
			switch lp.body(fr) {
			case ctlBreak:
				return ctlNext
			case ctlReturn:
				return ctlReturn
			}
		}
		return ctlNext
	}
}

func (fc *fnCompiler) switchStmt(st *ast.SwitchStmt) stmt {
	var init stmt
	if st.Init != nil {
		init = fc.stmt(st.Init)
	}
	// The tag is evaluated once into a temporary the cases compare to.
	var saveTag func(from, to *frame)
	var tag expr
	if st.Tag != nil {
		saveTag, tag = spill(fc.expr(st.Tag), &fc.lay)
	}
	type clause struct {
		match []boolFn
		body  stmt
	}
	var clauses []clause
	deflt := -1
	for _, s := range st.Body.List {
		cc := s.(*ast.CaseClause)
		cl := clause{body: seq(fc.stmts(cc.Body))}
		if cc.List == nil {
			deflt = len(clauses)
		}
		for _, e := range cc.List {
			if st.Tag != nil {
				cl.match = append(cl.match, fc.equal(tag, fc.expr(e), false, e.Pos()))
			} else {
				cl.match = append(cl.match, fc.cond(e))
			}
		}
		clauses = append(clauses, cl)
	}
	return func(fr *frame) ctl {
		if init != nil {
			init(fr)
		}
		if saveTag != nil {
			saveTag(fr, fr)
		}
		chosen := deflt
	search:
		for k := range clauses {
			for _, m := range clauses[k].match {
				if m(fr) {
					chosen = k
					break search
				}
			}
		}
		if chosen < 0 {
			return ctlNext
		}
		if c := clauses[chosen].body(fr); c != ctlBreak {
			return c
		}
		return ctlNext // break inside a switch leaves the switch
	}
}

func (fc *fnCompiler) returnStmt(st *ast.ReturnStmt) stmt {
	n := len(st.Results)
	if n == 0 {
		return func(*frame) ctl { return ctlReturn }
	}
	if n == 1 && fc.sig.Results().Len() > 1 {
		// return f() forwarding several values: f's own return left them
		// in the registers, in this function's result order.
		do := fc.expr(st.Results[0]).do
		return func(fr *frame) ctl { do(fr); return ctlReturn }
	}
	// All but the last result wait in temporaries while the later ones
	// are evaluated (their calls overwrite the registers); one already in
	// a slot stays there.
	var saves []func(from, to *frame)
	sets := make([]stmt, n)
	for j, res := range st.Results {
		e := fc.as(fc.expr(res), fc.sig.Results().At(j).Type())
		if j < n-1 && !e.inSlot {
			var save func(from, to *frame)
			save, e = spill(e, &fc.lay)
			saves = append(saves, save)
		}
		sets[j] = setResult(j, e)
	}
	if n == 1 {
		return sets[0]
	}
	return func(fr *frame) ctl {
		for _, save := range saves {
			save(fr, fr)
		}
		for j := n - 1; j >= 0; j-- {
			sets[j](fr)
		}
		return ctlReturn
	}
}

// setResult compiles "store e into result register j and return".
func setResult(j int, e expr) stmt {
	s := e.slot
	if val := e.r; val != nil {
		if e.inSlot {
			return func(fr *frame) ctl { fr.m.rr[j] = fr.refs[s]; return ctlReturn }
		}
		return func(fr *frame) ctl { v := val(fr); fr.m.rr[j] = v; return ctlReturn }
	}
	if e.inSlot {
		return func(fr *frame) ctl { fr.m.ri[j] = fr.ints[s]; return ctlReturn }
	}
	val := e.slotInt()
	return func(fr *frame) ctl { v := val(fr); fr.m.ri[j] = v; return ctlReturn }
}

// result reads result register j as a value of type t; a store to an
// unboxed variable copies the register in one closure.
func result(j int, t types.Type) expr {
	e := stored(t,
		func(fr *frame) uint64 { return fr.m.ri[j] },
		func(fr *frame) any { return fr.m.rr[j] })
	if e.r != nil {
		e.into = func(s int) stmt { return func(fr *frame) ctl { fr.refs[s] = fr.m.rr[j]; return ctlNext } }
	} else {
		e.into = func(s int) stmt { return func(fr *frame) ctl { fr.ints[s] = fr.m.ri[j]; return ctlNext } }
	}
	return e
}

// deferStmt evaluates callee and arguments now, into a small frame of
// the deferred call's own that the machine lends it until the call has
// run (a defer statement in a loop runs many times before any of its
// calls do), and queues the call for the unwind.
func (fc *fnCompiler) deferStmt(st *ast.DeferStmt) stmt {
	var lay layout
	var saves []func(from, to *frame)
	run := fc.call(st.Call, func(ops []expr) []expr {
		out := make([]expr, len(ops))
		for k, op := range ops {
			var save func(from, to *frame)
			save, out[k] = spill(op, &lay)
			saves = append(saves, save)
		}
		return out
	}).run()
	fc.code.hasDefer = true
	fc.deferInts, fc.deferRefs = max(fc.deferInts, lay.nInts), max(fc.deferRefs, lay.nRefs)
	pos := st.Pos()
	return func(fr *frame) ctl {
		m := fr.m
		if m.pending++; m.pending > maxPendingDefers {
			m.faultf(pos, "more than %d deferred calls pending: possible defer in an unbounded loop", maxPendingDefers)
		}
		d := m.deferred.take(m, m.src.deferInts, m.src.deferRefs, nil)
		for _, save := range saves {
			save(fr, d)
		}
		fr.defers = append(fr.defers, deferred{run: run, fr: d})
		return ctlNext
	}
}

// ---- assignment ----

// place is a compiled assignment target: the operands it evaluates
// first (slice and index, struct pointer; none for a variable) and the
// constructors of its load and store over them. Building both from one
// operand list is what lets op-assign and ++ evaluate the operands once
// and a tuple assignment evaluate every operand before any store.
type place struct {
	t     types.Type
	ops   []expr
	load  func(ops []expr) expr
	store func(ops []expr, v expr) stmt
}

// target compiles an assignment target. define says := declared it.
func (fc *fnCompiler) target(lhs ast.Expr, define bool) place {
	switch e := lhs.(type) {
	case *ast.ParenExpr:
		return fc.target(e.X, define)
	case *ast.Ident:
		if e.Name == "_" {
			return place{store: func(_ []expr, v expr) stmt { return v.run() }}
		}
		if v, ok := fc.info.Defs[e].(*types.Var); ok && define {
			ref := fc.declare(v, e.Pos())
			return place{t: ref.t, store: func(_ []expr, val expr) stmt { return fc.initVar(ref, val) }}
		}
		v, _ := fc.info.Uses[e].(*types.Var)
		ref, ok := fc.lookup(v)
		if !ok {
			fc.errorf(e.Pos(), "assignment to undeclared variable %s", e.Name)
			return place{}
		}
		return place{
			t:     ref.t,
			load:  func([]expr) expr { return fc.loadVar(ref) },
			store: func(_ []expr, val expr) stmt { return fc.storeVar(ref, val) },
		}
	case *ast.SelectorExpr:
		obj, idx, ok := fc.field(e)
		if !ok {
			return place{}
		}
		t := fc.info.TypeOf(e)
		return place{
			t:     t,
			ops:   []expr{obj},
			load:  func(ops []expr) expr { return fieldLoad(ops[0], idx, t, e.Pos()) },
			store: func(ops []expr, v expr) stmt { return fieldStore(ops[0], idx, v, e.Pos()) },
		}
	case *ast.IndexExpr:
		s, idx := fc.expr(e.X), fc.expr(e.Index)
		if _, ok := s.t.Underlying().(*types.Slice); !ok {
			fc.errorf(e.Pos(), "index assignment on non-slice value")
			return place{}
		}
		t, pos := fc.info.TypeOf(e), e.Index.Pos()
		return place{
			t:     t,
			ops:   []expr{s, idx},
			load:  func(ops []expr) expr { return indexLoad(ops[0], ops[1], t, pos) },
			store: func(ops []expr, v expr) stmt { return indexStore(ops[0], ops[1], v, pos) },
		}
	}
	fc.errorf(lhs.Pos(), "unsupported assignment target")
	return place{}
}

func (fc *fnCompiler) assignStmt(st *ast.AssignStmt) stmt {
	if st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
		return fc.assign(st.Lhs, st.Rhs, st.Tok == token.DEFINE, st.Pos())
	}
	return fc.opAssign(st.Lhs[0], assignOp(st.Tok), fc.expr(st.Rhs[0]), st.Pos())
}

// assign compiles lhs... = rhs... in Go's order: first the operands of
// index expressions and field selections on the left and the
// expressions on the right, left to right; then the stores, left to
// right.
func (fc *fnCompiler) assign(lhs, rhs []ast.Expr, define bool, pos token.Pos) stmt {
	// With := the right side cannot see the variables being declared,
	// so it is compiled before they enter the symbol table.
	vals := make([]expr, len(rhs))
	for k, e := range rhs {
		vals[k] = fc.expr(e)
	}
	places := make([]place, len(lhs))
	for k, e := range lhs {
		places[k] = fc.target(e, define)
		if places[k].store == nil {
			return nil
		}
	}

	if len(lhs) == len(rhs) {
		for k, p := range places {
			if p.t != nil {
				vals[k] = fc.as(vals[k], p.t)
			}
		}
	}
	if len(lhs) == 1 && len(rhs) == 1 {
		return places[0].store(places[0].ops, vals[0])
	}

	// Several targets: every operand and value is evaluated into a
	// temporary before the first store.
	var saves []func(from, to *frame)
	temp := func(e expr) expr {
		save, tmp := spill(e, &fc.lay)
		saves = append(saves, save)
		return tmp
	}
	ops := make([][]expr, len(places))
	for k, p := range places {
		for _, op := range p.ops {
			ops[k] = append(ops[k], temp(op))
		}
	}
	var call stmt
	if len(rhs) == 1 {
		// One call yielding a value per target, read from the registers.
		tuple, ok := vals[0].t.(*types.Tuple)
		if !ok || tuple.Len() != len(lhs) || vals[0].do == nil {
			if ok {
				fc.errorf(pos, "assignment mismatch: %d targets, %d values", len(lhs), tuple.Len())
			}
			return nil
		}
		call = vals[0].do
		vals = make([]expr, len(lhs))
		for j := range vals {
			vals[j] = result(j, tuple.At(j).Type())
		}
	} else {
		for k := range vals {
			vals[k] = temp(vals[k])
		}
	}
	stores := make([]stmt, len(places))
	for k, p := range places {
		stores[k] = p.store(ops[k], vals[k])
	}
	return func(fr *frame) ctl {
		for _, save := range saves {
			save(fr, fr)
		}
		if call != nil {
			call(fr)
		}
		for _, store := range stores {
			store(fr)
		}
		return ctlNext
	}
}

// opAssign compiles lhs op= v (and ++/--): the target's operands are
// evaluated once into temporaries, then lhs = lhs op v over them.
func (fc *fnCompiler) opAssign(lhs ast.Expr, op token.Token, v expr, pos token.Pos) stmt {
	p := fc.target(lhs, false)
	if p.load == nil {
		if p.store != nil {
			fc.errorf(pos, "unsupported assignment target")
		}
		return nil
	}
	var saves []func(from, to *frame)
	ops := make([]expr, len(p.ops))
	for k, operand := range p.ops {
		var save func(from, to *frame)
		save, ops[k] = spill(operand, &fc.lay)
		saves = append(saves, save)
	}
	cur := p.load(ops)
	if k, ok := intKind(p.t); ok && kindWidth(k) == 64 && cur.inSlot && v.inSlot && (op == token.ADD || op == token.SUB) {
		// x += y, x -= y, x++ and x-- on an unboxed variable: one closure
		// reading both operands from the frame.
		d, s := cur.slot, v.slot
		if op == token.ADD {
			return func(fr *frame) ctl { fr.ints[d] += fr.ints[s]; return ctlNext }
		}
		return func(fr *frame) ctl { fr.ints[d] -= fr.ints[s]; return ctlNext }
	}
	store := p.store(ops, fc.binop(op, cur, v, p.t, pos))
	if len(saves) == 0 {
		return store
	}
	return func(fr *frame) ctl {
		for _, save := range saves {
			save(fr, fr)
		}
		store(fr)
		return ctlNext
	}
}

// assignOp is the binary operator of an op-assign token; go/token lists
// the two families in the same order.
func assignOp(tok token.Token) token.Token {
	if token.ADD_ASSIGN <= tok && tok <= token.AND_NOT_ASSIGN {
		return tok + (token.ADD - token.ADD_ASSIGN)
	}
	return token.ILLEGAL
}

// ---- struct fields and slice elements ----

// field resolves x.f to the struct pointer expression and the field's
// index; it reports anything else a selector can be.
func (fc *fnCompiler) field(x *ast.SelectorExpr) (obj expr, idx int, ok bool) {
	sel, isSel := fc.info.Selections[x]
	switch {
	case isSel && sel.Kind() == types.FieldVal && len(sel.Index()) == 1:
		if _, ok := reprOf(sel.Type()); !ok {
			fc.errorf(x.Sel.Pos(), "values of type %s are unsupported", sel.Type())
			return expr{}, 0, false
		}
		obj = fc.expr(x.X)
		if _, isPtr := obj.t.Underlying().(*types.Pointer); !isPtr && obj.r != nil {
			fc.errorf(x.Pos(), "field access on nil or non-struct value")
			return expr{}, 0, false
		}
		return obj, sel.Index()[0], true
	case isSel:
		fc.errorf(x.Pos(), "unsupported selector %s (method values must be called directly)", x.Sel.Name)
	default:
		fc.errorf(x.Pos(), "unsupported selector %s (cxl functions can only be called)", x.Sel.Name)
	}
	return expr{}, 0, false
}

// fields dereferences a struct pointer.
func fields(v any, fr *frame, pos token.Pos) []cell {
	o := v.(*object)
	if o == nil {
		fr.m.fault(pos, "field access on nil or non-struct value")
	}
	return o.f
}

// fieldLoad reads field idx of obj; a slotted obj is read in place.
func fieldLoad(obj expr, idx int, t types.Type, pos token.Pos) expr {
	o, s := obj.r, obj.slot
	if obj.inSlot {
		return stored(t,
			func(fr *frame) uint64 { return fields(fr.refs[s], fr, pos)[idx].n },
			func(fr *frame) any { return fields(fr.refs[s], fr, pos)[idx].r })
	}
	return stored(t,
		func(fr *frame) uint64 { return fields(o(fr), fr, pos)[idx].n },
		func(fr *frame) any { return fields(o(fr), fr, pos)[idx].r })
}

func fieldStore(obj expr, idx int, v expr, pos token.Pos) stmt {
	o := obj.r
	if val := v.r; val != nil {
		return func(fr *frame) ctl { p, x := o(fr), val(fr); fields(p, fr, pos)[idx].r = x; return ctlNext }
	}
	val := v.slotInt()
	return func(fr *frame) ctl { p, x := o(fr), val(fr); fields(p, fr, pos)[idx].n = x; return ctlNext }
}

// at bounds-checks an index against a length.
func at(i uint64, n int, fr *frame, pos token.Pos) uint64 {
	if i >= uint64(n) {
		fr.m.indexFault(pos, i, n)
	}
	return i
}

// indexLoad reads s[idx]; slice and index both slotted are read in
// place.
func indexLoad(s, idx expr, t types.Type, pos token.Pos) expr {
	sl, i := s.r, idx.i
	if a, k := s.slot, idx.slot; s.inSlot && idx.inSlot {
		return stored(t,
			func(fr *frame) uint64 { x := fr.refs[a].([]uint64); return x[at(fr.ints[k], len(x), fr, pos)] },
			func(fr *frame) any { x := fr.refs[a].([]any); return x[at(fr.ints[k], len(x), fr, pos)] })
	}
	return stored(t,
		func(fr *frame) uint64 { a := sl(fr).([]uint64); return a[at(i(fr), len(a), fr, pos)] },
		func(fr *frame) any { a := sl(fr).([]any); return a[at(i(fr), len(a), fr, pos)] })
}

// indexStore evaluates slice, index and value, then checks and stores:
// the value's calls happen even when the index is out of range, as in
// compiled Go.
func indexStore(s, idx, v expr, pos token.Pos) stmt {
	sl, i := s.r, idx.i
	if val := v.r; val != nil {
		return func(fr *frame) ctl {
			a, k, x := sl(fr).([]any), i(fr), val(fr)
			a[at(k, len(a), fr, pos)] = x
			return ctlNext
		}
	}
	val := v.slotInt()
	return func(fr *frame) ctl {
		a, k, x := sl(fr).([]uint64), i(fr), val(fr)
		a[at(k, len(a), fr, pos)] = x
		return ctlNext
	}
}

// ---- expressions ----

// expr compiles one expression. A failure is reported once, where it is
// found; enclosing expressions pass the empty expr along silently.
func (fc *fnCompiler) expr(e ast.Expr) expr {
	tv, ok := fc.info.Types[e]
	if ok && tv.Value != nil {
		return fc.constant(tv.Value, tv.Type, e.Pos())
	}
	before := len(fc.diags)
	var out expr
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fc.expr(x.X)
	case *ast.Ident:
		out = fc.ident(x)
	case *ast.FuncLit:
		out = fc.funcLit(x)
	case *ast.UnaryExpr:
		out = fc.unary(x)
	case *ast.BinaryExpr:
		out = fc.binary(x)
	case *ast.CallExpr:
		out = fc.call(x, nil)
	case *ast.SelectorExpr:
		if obj, idx, ok := fc.field(x); ok {
			out = fieldLoad(obj, idx, tv.Type, x.Pos())
		}
	case *ast.IndexExpr:
		s, idx := fc.expr(x.X), fc.expr(x.Index)
		if _, ok := s.t.Underlying().(*types.Slice); ok {
			out = indexLoad(s, idx, tv.Type, x.Index.Pos())
		} else if s.r != nil {
			fc.errorf(x.Pos(), "index of non-slice value")
		}
	case *ast.CompositeLit:
		out = fc.compositeLit(x, false)
	}
	if out.failed() && len(fc.diags) == before {
		fc.errorf(e.Pos(), "unsupported expression")
	}
	if out.t == nil {
		out.t = tv.Type
	}
	if out.t == nil {
		out.t = types.Typ[types.Invalid]
	}
	return out
}

// constant folds a type-checker constant: an integer or a bool into its
// slot (and a closure reading it), a string into a closure.
func (fc *fnCompiler) constant(cv constant.Value, t types.Type, pos token.Pos) expr {
	e := expr{t: t}
	switch cv.Kind() {
	case constant.Bool:
		v := constant.BoolVal(cv)
		e.b = func(*frame) bool { return v }
		return e.slotted(fc.constSlot(b2u(v)))
	case constant.String:
		var v any = constant.StringVal(cv)
		e.r = func(*frame) any { return v }
		return e
	case constant.Int:
		if k, ok := intKind(t); ok {
			// A constant fits its type, so one of the two conversions is
			// exact; either way the bits are the value's two's complement.
			bits, exact := constant.Uint64Val(cv)
			if !exact {
				i, _ := constant.Int64Val(cv)
				bits = uint64(i)
			}
			v := canonOf(k).of(bits)
			e.i = func(*frame) uint64 { return v }
			return e.slotted(fc.constSlot(v))
		}
	}
	if _, ok := reprOf(t); !ok {
		fc.errorf(pos, "values of type %s are unsupported", t)
	} else {
		fc.errorf(pos, "unsupported constant")
	}
	return e
}

// zero is the zero value of t.
func (fc *fnCompiler) zero(t types.Type) expr {
	e := expr{t: t}
	switch rep, _ := reprOf(t); rep {
	case rInt:
		e.i = func(*frame) uint64 { return 0 }
		return e.slotted(fc.constSlot(0))
	case rBool:
		e.b = func(*frame) bool { return false }
		return e.slotted(fc.constSlot(0))
	default:
		v := zeroRef(t)
		e.r = func(*frame) any { return v }
	}
	return e
}

// zeroRef is the typed nil (or empty string) a ref type starts as.
func zeroRef(t types.Type) any {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return ""
		}
	case *types.Slice:
		if rep, _ := reprOf(u.Elem()); rep == rRef {
			return []any(nil)
		}
		return []uint64(nil)
	case *types.Signature:
		return (*closure)(nil)
	case *types.Pointer:
		if named, ok := u.Elem().(*types.Named); ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "cxl" {
			switch named.Obj().Name() {
			case "Region":
				return (*core.Program)(nil)
			case "Machine":
				return (*core.Machine)(nil)
			case "Thread":
				return (*core.Thread)(nil)
			case "Mutex":
				return (*core.Mutex)(nil)
			}
		}
		return (*object)(nil)
	}
	return nil
}

func (fc *fnCompiler) ident(id *ast.Ident) expr {
	switch o := fc.info.Uses[id].(type) {
	case *types.Nil:
		return fc.zero(fc.info.TypeOf(id))
	case *types.Var:
		if ref, ok := fc.lookup(o); ok {
			return fc.loadVar(ref)
		}
		fc.errorf(id.Pos(), "variable %s is not initialized here", id.Name)
	case *types.Func:
		if code, ok := fc.funcs[o]; ok {
			var v any = code.self
			return expr{t: o.Type(), r: func(*frame) any { return v }}
		}
		fc.errorf(id.Pos(), "function %s has no interpretable body", id.Name)
	default:
		fc.errorf(id.Pos(), "unsupported identifier %s", id.Name)
	}
	return expr{}
}

func (fc *fnCompiler) funcLit(lit *ast.FuncLit) expr {
	sig := fc.info.TypeOf(lit).(*types.Signature)
	inner := &fnCompiler{compiler: fc.compiler, code: fc.newCode(lit.Pos()), parent: fc, sig: sig, vars: map[*types.Var]varRef{}}
	inner.compileBody(nil, lit.Type, lit.Body)
	code, from := inner.code, inner.capFrom
	if len(from) == 0 {
		var v any = &closure{fn: code}
		return expr{t: sig, r: func(*frame) any { return v }}
	}
	pos := lit.Pos()
	return expr{t: sig, r: func(fr *frame) any {
		fr.m.grow(uint64(len(from)), pos)
		a := fr.m.arena
		cl := a.closures.one()
		cl.fn, cl.caps = code, a.refs.take(len(from))
		for j, s := range from {
			cl.caps[j] = fr.refs[s]
		}
		return cl
	}}
}

func (fc *fnCompiler) unary(x *ast.UnaryExpr) expr {
	if x.Op == token.AND {
		cl, ok := x.X.(*ast.CompositeLit)
		if !ok {
			fc.errorf(x.Pos(), "& is only supported on struct literals")
			return expr{}
		}
		return fc.compositeLit(cl, true)
	}
	v := fc.expr(x.X)
	t := fc.info.TypeOf(x)
	if x.Op == token.NOT {
		b, s := v.b, v.slot
		if v.inSlot {
			return expr{t: t, b: func(fr *frame) bool { return fr.ints[s] == 0 }}
		}
		return expr{t: t, b: func(fr *frame) bool { return !b(fr) }}
	}
	k, ok := intKind(t)
	if !ok || v.i == nil {
		if !v.failed() {
			fc.errorf(x.Pos(), "unary %s on non-integer value", x.Op)
		}
		return expr{}
	}
	i, c := v.i, canonOf(k)
	switch x.Op {
	case token.ADD:
		return v
	case token.SUB:
		return expr{t: t, i: func(fr *frame) uint64 { return c.of(-i(fr)) }}
	case token.XOR:
		return expr{t: t, i: func(fr *frame) uint64 { return c.of(^i(fr)) }}
	}
	fc.errorf(x.Pos(), "unsupported unary operator %s", x.Op)
	return expr{}
}

func (fc *fnCompiler) binary(x *ast.BinaryExpr) expr {
	t := fc.info.TypeOf(x)
	if x.Op == token.LAND || x.Op == token.LOR {
		l, r := fc.cond(x.X), fc.cond(x.Y)
		if x.Op == token.LAND {
			return expr{t: t, b: func(fr *frame) bool { return l(fr) && r(fr) }}
		}
		return expr{t: t, b: func(fr *frame) bool { return l(fr) || r(fr) }}
	}
	return fc.binop(x.Op, fc.expr(x.X), fc.expr(x.Y), t, x.Pos())
}

// binop compiles l op r, of type t, for already compiled operands.
func (fc *fnCompiler) binop(op token.Token, l, r expr, t types.Type, pos token.Pos) expr {
	if l.failed() || r.failed() {
		return expr{} // an operand already failed
	}
	switch op {
	case token.EQL, token.NEQ:
		e := expr{t: t, b: fc.equal(l, r, op == token.NEQ, pos)}
		if l.inSlot && r.inSlot && l.r == nil && r.r == nil {
			e.test = &test{op: op, x: l.slot, y: r.slot}
		}
		return e
	}
	if l.r != nil && r.r != nil && op == token.ADD {
		if b, ok := l.t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			x, y := l.r, r.r
			return expr{t: t, r: func(fr *frame) any {
				a, b := x(fr).(string), y(fr).(string)
				fr.m.grow(uint64(len(a)+len(b))/8, pos)
				return a + b
			}}
		}
	}
	k, ok := intKind(l.t)
	if !ok || l.i == nil || r.i == nil {
		fc.errorf(pos, "unsupported binary operator %s", op)
		return expr{}
	}
	signed := kindSigned(k)
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		// A signed ordering compares with the sign bits flipped, which
		// orders two's complement as unsigned does, so one closure serves
		// both; > and >= are < and <= with the operands swapped when
		// either is slotted.
		var flip uint64
		if signed {
			flip = 1 << 63
		}
		if swap, ok := mirrored[op]; ok && (l.inSlot || r.inSlot) {
			l, r, op = r, l, swap
		}
		e := expr{t: t, b: ordered(op, l, r, flip)}
		if l.inSlot && r.inSlot {
			e.test = &test{op: op, x: l.slot, y: r.slot, flip: flip}
		}
		return e
	case token.QUO, token.REM, token.SHL, token.SHR:
		return expr{t: t, i: faulting(op, l.opnd(), r.opnd(), signed, canonOf(k), r.t, pos)}
	case token.ADD, token.SUB, token.MUL:
		if kindWidth(k) < 64 {
			return expr{t: t, i: wrapping(op, l.opnd(), r.opnd(), canonOf(k))}
		}
	}
	if f := arith(op, l, r); f != nil {
		return expr{t: t, i: f}
	}
	fc.errorf(pos, "unsupported binary operator %s", op)
	return expr{}
}

// arith compiles l op r for the operators that cannot fault, of a
// 64-bit kind or bitwise (the bitwise operators keep every kind's
// canonical form). A commutative operator takes a slotted operand on the
// left; each operator then has a closure per operand form — slot ⊕
// slot, slot ⊕ closure, closure ⊕ slot for the two that do not commute,
// and closure ⊕ closure — so an operand in the frame is read, never
// called.
func arith(op token.Token, l, r expr) intFn {
	switch op {
	case token.ADD, token.MUL, token.AND, token.OR, token.XOR:
		if r.inSlot && !l.inSlot {
			l, r = r, l
		}
	}
	a, b, x, y := l.slot, r.slot, l.i, r.i
	switch {
	case l.inSlot && r.inSlot:
		switch op {
		case token.ADD:
			return func(fr *frame) uint64 { return fr.ints[a] + fr.ints[b] }
		case token.SUB:
			return func(fr *frame) uint64 { return fr.ints[a] - fr.ints[b] }
		case token.MUL:
			return func(fr *frame) uint64 { return fr.ints[a] * fr.ints[b] }
		case token.AND:
			return func(fr *frame) uint64 { return fr.ints[a] & fr.ints[b] }
		case token.OR:
			return func(fr *frame) uint64 { return fr.ints[a] | fr.ints[b] }
		case token.XOR:
			return func(fr *frame) uint64 { return fr.ints[a] ^ fr.ints[b] }
		case token.AND_NOT:
			return func(fr *frame) uint64 { return fr.ints[a] &^ fr.ints[b] }
		}
	case l.inSlot:
		switch op {
		case token.ADD:
			return func(fr *frame) uint64 { return fr.ints[a] + y(fr) }
		case token.SUB:
			return func(fr *frame) uint64 { return fr.ints[a] - y(fr) }
		case token.MUL:
			return func(fr *frame) uint64 { return fr.ints[a] * y(fr) }
		case token.AND:
			return func(fr *frame) uint64 { return fr.ints[a] & y(fr) }
		case token.OR:
			return func(fr *frame) uint64 { return fr.ints[a] | y(fr) }
		case token.XOR:
			return func(fr *frame) uint64 { return fr.ints[a] ^ y(fr) }
		case token.AND_NOT:
			return func(fr *frame) uint64 { return fr.ints[a] &^ y(fr) }
		}
	case r.inSlot:
		switch op {
		case token.SUB:
			return func(fr *frame) uint64 { return x(fr) - fr.ints[b] }
		case token.AND_NOT:
			return func(fr *frame) uint64 { return x(fr) &^ fr.ints[b] }
		}
	default:
		switch op {
		case token.ADD:
			return func(fr *frame) uint64 { return x(fr) + y(fr) }
		case token.SUB:
			return func(fr *frame) uint64 { return x(fr) - y(fr) }
		case token.MUL:
			return func(fr *frame) uint64 { return x(fr) * y(fr) }
		case token.AND:
			return func(fr *frame) uint64 { return x(fr) & y(fr) }
		case token.OR:
			return func(fr *frame) uint64 { return x(fr) | y(fr) }
		case token.XOR:
			return func(fr *frame) uint64 { return x(fr) ^ y(fr) }
		case token.AND_NOT:
			return func(fr *frame) uint64 { return x(fr) &^ y(fr) }
		}
	}
	return nil
}

// wrapping compiles +, - and * for a kind narrower than 64 bits, whose
// results wrap to the kind's width: one closure per operator, bringing
// the sum back to the canonical form itself. Out of line for the reason
// callSite.run is.
//
//go:noinline
func wrapping(op token.Token, x, y opnd, c canon) intFn {
	switch op {
	case token.ADD:
		return func(fr *frame) uint64 { return c.of(x.get(fr) + y.get(fr)) }
	case token.SUB:
		return func(fr *frame) uint64 { return c.of(x.get(fr) - y.get(fr)) }
	}
	return func(fr *frame) uint64 { return c.of(x.get(fr) * y.get(fr)) }
}

// opnd is an integer operand read in whichever form it has: in place
// when slotted, by its closure otherwise. The operators too rare to earn
// a closure per operand form take theirs this way.
type opnd struct {
	i      intFn
	slot   int
	inSlot bool
}

func (e expr) opnd() opnd { return opnd{i: e.i, slot: e.slot, inSlot: e.inSlot} }

func (o *opnd) get(fr *frame) uint64 {
	if o.inSlot {
		return fr.ints[o.slot]
	}
	return o.i(fr)
}

// faulting compiles the operators that can fault: division by zero, and
// a negative shift count. Go's run-time shift semantics: a count at or
// beyond the width shifts out to 0 (or to the sign for signed >>) —
// which the host's own 64-bit shifts of the canonical form give once the
// result is brought back to it.
func faulting(op token.Token, x, y opnd, signed bool, c canon, countType types.Type, pos token.Pos) intFn {
	switch op {
	case token.QUO, token.REM:
		rem := op == token.REM
		return func(fr *frame) uint64 {
			a, b := x.get(fr), y.get(fr)
			if b == 0 {
				fr.m.fault(pos, "runtime error: integer divide by zero")
			}
			switch {
			case signed && rem:
				return uint64(int64(a) % int64(b))
			case signed:
				return c.of(uint64(int64(a) / int64(b)))
			case rem:
				return a % b
			}
			return a / b
		}
	}
	ck, _ := intKind(countType)
	countSigned, left := kindSigned(ck), op == token.SHL
	return func(fr *frame) uint64 {
		a, n := x.get(fr), y.get(fr)
		if countSigned && int64(n) < 0 {
			fr.m.fault(pos, "negative shift amount")
		}
		switch {
		case left:
			return c.of(a << n)
		case signed:
			return uint64(int64(a) >> n)
		}
		return a >> n
	}
}

var mirrored = map[token.Token]token.Token{token.GTR: token.LSS, token.GEQ: token.LEQ}

// ordered compiles an ordering comparison of the operands xor f; > and
// >= only come with neither operand slotted.
func ordered(op token.Token, l, r expr, f uint64) boolFn {
	a, b, x, y := l.slot, r.slot, l.i, r.i
	switch {
	case l.inSlot && r.inSlot && op == token.LSS:
		return func(fr *frame) bool { return fr.ints[a]^f < fr.ints[b]^f }
	case l.inSlot && r.inSlot:
		return func(fr *frame) bool { return fr.ints[a]^f <= fr.ints[b]^f }
	case l.inSlot && op == token.LSS:
		return func(fr *frame) bool { return fr.ints[a]^f < y(fr)^f }
	case l.inSlot:
		return func(fr *frame) bool { return fr.ints[a]^f <= y(fr)^f }
	case r.inSlot && op == token.LSS:
		return func(fr *frame) bool { return x(fr)^f < fr.ints[b]^f }
	case r.inSlot:
		return func(fr *frame) bool { return x(fr)^f <= fr.ints[b]^f }
	}
	switch op {
	case token.LSS:
		return func(fr *frame) bool { return x(fr)^f < y(fr)^f }
	case token.LEQ:
		return func(fr *frame) bool { return x(fr)^f <= y(fr)^f }
	case token.GTR:
		return func(fr *frame) bool { return x(fr)^f > y(fr)^f }
	}
	return func(fr *frame) bool { return x(fr)^f >= y(fr)^f }
}

// equal compiles l == r, or l != r when neq, for any comparable pair the
// subset has. Integers and bools compare as the uint64 their slots keep,
// with a slotted operand read in place.
func (fc *fnCompiler) equal(l, r expr, neq bool, pos token.Pos) boolFn {
	// The type checker leaves a nil operand of a comparison untyped: it
	// is the other operand's typed nil.
	if isUntypedNil(l.t) && r.r != nil {
		l = fc.zero(r.t)
	} else if isUntypedNil(r.t) && l.r != nil {
		r = fc.zero(l.t)
	}
	if l.i != nil && r.i != nil || l.b != nil && r.b != nil {
		if r.inSlot && !l.inSlot {
			l, r = r, l
		}
		if x, y := l.b, r.b; x != nil && !l.inSlot {
			if neq {
				return func(fr *frame) bool { return x(fr) != y(fr) }
			}
			return func(fr *frame) bool { return x(fr) == y(fr) }
		}
		a, b, x, y := l.slot, r.slot, l.slotInt(), r.slotInt()
		switch {
		case l.inSlot && r.inSlot && neq:
			return func(fr *frame) bool { return fr.ints[a] != fr.ints[b] }
		case l.inSlot && r.inSlot:
			return func(fr *frame) bool { return fr.ints[a] == fr.ints[b] }
		case l.inSlot && neq:
			return func(fr *frame) bool { return fr.ints[a] != y(fr) }
		case l.inSlot:
			return func(fr *frame) bool { return fr.ints[a] == y(fr) }
		case neq:
			return func(fr *frame) bool { return x(fr) != y(fr) }
		}
		return func(fr *frame) bool { return x(fr) == y(fr) }
	}
	if l.r == nil || r.r == nil {
		if !l.failed() && !r.failed() {
			fc.errorf(pos, "mixed operand types in comparison")
		}
		return nil
	}
	eq := refEqual(l, r)
	if eq == nil {
		fc.errorf(pos, "unsupported comparison")
	} else if neq {
		return func(fr *frame) bool { return !eq(fr) }
	}
	return eq
}

// refEqual compiles l == r for two references.
func refEqual(l, r expr) boolFn {
	x, y := l.r, r.r
	switch u := l.t.Underlying().(type) {
	case *types.Basic: // strings
		return func(fr *frame) bool { a, b := x(fr), y(fr); return a.(string) == b.(string) }
	case *types.Pointer:
		// One dynamic type per static type, so interface equality is
		// pointer equality (typed nils included).
		return func(fr *frame) bool { a, b := x(fr), y(fr); return a == b }
	case *types.Slice:
		// Slices compare to nil only (the checker saw to that); both
		// sides are evaluated, one of them is the nil.
		if rep, _ := reprOf(u.Elem()); rep == rRef {
			return func(fr *frame) bool { a, b := x(fr), y(fr); return a.([]any) == nil && b.([]any) == nil }
		}
		return func(fr *frame) bool { a, b := x(fr), y(fr); return a.([]uint64) == nil && b.([]uint64) == nil }
	case *types.Signature:
		return func(fr *frame) bool { a, b := x(fr), y(fr); return a.(*closure) == nil && b.(*closure) == nil }
	}
	return nil
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func (fc *fnCompiler) compositeLit(cl *ast.CompositeLit, addressed bool) expr {
	t := fc.info.TypeOf(cl)
	if ptr, ok := t.Underlying().(*types.Pointer); ok && cl.Type == nil {
		t, addressed = ptr.Elem(), true // &T elided inside a []*T literal
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		rep := fc.repr(u.Elem(), cl.Pos())
		var ints []intFn
		var refs []refFn
		for _, e := range cl.Elts {
			if _, ok := e.(*ast.KeyValueExpr); ok {
				fc.errorf(e.Pos(), "keyed slice literals are unsupported")
				return expr{}
			}
			if v := fc.as(fc.expr(e), u.Elem()); rep == rRef {
				refs = append(refs, v.r)
			} else {
				ints = append(ints, v.slotInt())
			}
		}
		if rep == rRef {
			return expr{t: t, r: func(fr *frame) any { return literal(refs, fr) }}
		}
		return expr{t: t, r: func(fr *frame) any { return literal(ints, fr) }}

	case *types.Struct:
		if !addressed {
			fc.errorf(cl.Pos(), "struct values must be created with &T{...} (structs are pointer-shaped in the checked subset)")
			return expr{}
		}
		zero := make([]cell, u.NumFields())
		for i := range zero {
			f := u.Field(i)
			if rep, ok := reprOf(f.Type()); !ok {
				fc.errorf(cl.Pos(), "struct field %s has unsupported type %s", f.Name(), f.Type())
				return expr{}
			} else if rep == rRef {
				zero[i].r = zeroRef(f.Type())
			}
		}
		sets := make([]func(fr *frame, f []cell), len(cl.Elts))
		for i, e := range cl.Elts {
			idx := i
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				e = kv.Value
				name := kv.Key.(*ast.Ident).Name
				for idx = 0; u.Field(idx).Name() != name; idx++ {
				}
			}
			if v := fc.as(fc.expr(e), u.Field(idx).Type()); v.r != nil {
				val := v.r
				sets[i] = func(fr *frame, f []cell) { f[idx].r = val(fr) }
			} else {
				val := v.slotInt()
				sets[i] = func(fr *frame, f []cell) { f[idx].n = val(fr) }
			}
		}
		pos := cl.Pos()
		return expr{t: types.NewPointer(t), r: func(fr *frame) any {
			fr.m.grow(uint64(len(zero))+1, pos)
			a := fr.m.arena
			o := a.objects.one()
			o.f = a.cells.take(len(zero))
			copy(o.f, zero)
			for _, set := range sets {
				set(fr, o.f)
			}
			return o
		}}
	}
	fc.errorf(cl.Pos(), "unsupported composite literal type %s", t)
	return expr{}
}

// evalAll evaluates element closures into a slice from the execution's
// arena: append's element list.
func evalAll[T any](elems []func(*frame) T, fr *frame) []T {
	out := slabOf[T](fr.m.arena).take(len(elems))
	for i, e := range elems {
		out[i] = e(fr)
	}
	return out
}
