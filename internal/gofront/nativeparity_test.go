package gofront_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/gofront/cxl"
	"repro/internal/core"
	"repro/internal/gofront"
)

// The native-parity property test: a seeded generator produces small
// deterministic programs over a few shared cells, locals and one local
// slice as an op IR. Each program is executed twice — natively, as
// compiled Go calling the real gofront/cxl runtime, and rendered to
// source and run by the front-end under the checker. The native run's
// final locals, slice elements and cell values are baked into the
// rendered source as cxl.Assert calls, so any semantic divergence
// between the front-end and compiled Go (arithmetic, shifts, control
// flow, closures, the cxl ops themselves, the order and number of times
// an assignment evaluates its operands) is a reported assertion bug. The
// programs are single-machine and single-thread: under failure injection
// the thread dies before its asserts, so a correct front-end yields zero
// bugs in every explored execution.
//
// Besides the uint64 locals v0..v3 the programs have two typed locals of
// each of int, int8, int32 and uint16, and the typed statements reach
// every operand form the compiler specialises: a local or a constant on
// either side of an operator, the six comparisons as if conditions,
// x op= y and x op= const, x++ and x--, in signed and narrow kinds.

const (
	npCells = 4
	npVars  = 4
	npArr   = 4 // elements of the local slice arr
	npTVars = 2 // typed locals per kind
)

type npKind int

const (
	npConst npKind = iota
	npBinop
	npLoad
	npStore
	npFlush
	npFetchAdd
	npSwap
	npCAS
	npIdxAssign   // arr[cxl op] = cxl op, on one cell: pins evaluation order
	npIdxOpAssign // arr[cxl op] op= cxl op: pins single evaluation of the index
	npIf
	npLoop
	npClosure
	npTBinop    // t[d] = L op R in one kind, L or R possibly a constant
	npTOpAssign // t[d] op= R
	npTIncDec   // t[d]++ or t[d]--
	npTIf       // if L cmp R { body } else { alt }, or if !(L cmp R) { alt } else { body }
)

// npTypes are the kinds of the typed statements: uint64 over v0..v3, and
// the typed locals, named by prefix.
var npTypes = []struct{ name, prefix string }{
	{"uint64", "v"}, {"int", "n"}, {"int8", "b"}, {"int32", "w"}, {"uint16", "h"},
}

// npSide says which operand of a typed statement is the constant lit.
type npSide int

const (
	npNoConst npSide = iota
	npConstLeft
	npConstRight
)

type npStmt struct {
	kind      npKind
	d, a, b   int // local indexes
	c         int // cell index
	op        string
	lit       uint64
	ty        int // npTypes index of a typed statement
	side      npSide
	neg       bool // npTIf tests the negated comparison, a value rather than a condition
	body, alt []npStmt
}

var (
	npOps      = []string{"+", "-", "*", "&", "|", "^", "&^", "<<", ">>", "/", "%"}
	npAssignOp = []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"}
	npCmps     = []string{"<", "<=", ">", ">=", "==", "!="}
)

// npGen generates a statement list; depth bounds nesting.
func npGen(rng *rand.Rand, n, depth int) []npStmt {
	ops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"}
	var out []npStmt
	for len(out) < n {
		s := npStmt{
			d: rng.Intn(npVars), a: rng.Intn(npVars), b: rng.Intn(npVars),
			c: rng.Intn(npCells),
		}
		k := rng.Intn(22)
		switch {
		case k < 2:
			s.kind = npConst
			s.lit = rng.Uint64()
		case k < 6:
			s.kind = npBinop
			s.op = ops[rng.Intn(len(ops))]
		case k < 7:
			s.kind = npLoad
		case k < 9:
			s.kind = npStore
		case k < 10:
			s.kind = npFlush
		case k < 11:
			s.kind = npFetchAdd
		case k < 12:
			switch rng.Intn(2) {
			case 0:
				s.kind = npSwap
			case 1:
				s.kind = npCAS
			}
		case k < 13:
			s.kind = npIdxAssign
		case k < 14:
			s.kind = npIdxOpAssign
			s.op = []string{"+", "*", "^"}[rng.Intn(3)]
		case k < 20:
			s.ty = rng.Intn(len(npTypes))
			if s.ty != 0 { // two typed locals of the other kinds
				s.d, s.a, s.b = rng.Intn(npTVars), rng.Intn(npTVars), rng.Intn(npTVars)
			}
			s.lit = npLiteral(rng)
			switch k {
			case 14, 15:
				s.kind = npTBinop
				s.op = npOps[rng.Intn(len(npOps))]
				s.side = npSide(rng.Intn(3))
			case 16:
				s.kind = npTOpAssign
				s.op = npAssignOp[rng.Intn(len(npAssignOp))]
				s.side = []npSide{npNoConst, npConstRight}[rng.Intn(2)]
			case 17:
				s.kind = npTIncDec
				s.op = []string{"++", "--"}[rng.Intn(2)]
			default:
				if depth == 0 {
					continue
				}
				s.kind = npTIf
				s.op = npCmps[rng.Intn(len(npCmps))]
				s.side = npSide(rng.Intn(3))
				s.neg = rng.Intn(2) == 0
				s.body = npGen(rng, 1+rng.Intn(3), depth-1)
				s.alt = npGen(rng, 1+rng.Intn(3), depth-1)
			}
		default:
			if depth == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				s.kind = npIf
				s.body = npGen(rng, 1+rng.Intn(3), depth-1)
				s.alt = npGen(rng, 1+rng.Intn(3), depth-1)
			case 1:
				s.kind = npLoop
				s.body = npGen(rng, 1+rng.Intn(3), depth-1)
			case 2:
				s.kind = npClosure
				s.body = npGen(rng, 1+rng.Intn(3), depth-1)
			}
		}
		out = append(out, s)
	}
	return out
}

// npLiteral draws a constant operand: small values, the edges of the
// narrow kinds and anything at all, each kind taking it modulo its width.
func npLiteral(rng *rand.Rand) uint64 {
	switch rng.Intn(3) {
	case 0:
		return uint64(rng.Intn(9)) - 4
	case 1:
		edges := []uint64{0x7f, 0x80, 0xff, 0x7fff, 0x8000, 0xffff, 0x7fffffff, 0x80000000, 1 << 63}
		return edges[rng.Intn(len(edges))]
	}
	return rng.Uint64()
}

// npState is a program's locals.
type npState struct {
	vars [npVars]uint64
	i    [npTVars]int
	b    [npTVars]int8
	w    [npTVars]int32
	h    [npTVars]uint16
}

type npInt interface {
	~int | ~int8 | ~int32 | ~uint16 | ~uint64
}

// npOperands returns a typed statement's operands L and R as values of
// its kind: the locals a and b, one of them replaced by the constant.
func npOperands[T npInt](vars []T, s npStmt) (l, r T) {
	l, r = vars[s.a], vars[s.b]
	switch s.side {
	case npConstLeft:
		l = T(s.lit)
	case npConstRight:
		r = T(s.lit)
	}
	return l, r
}

// npApply computes L op R as npRenderOp renders it: a shift count is
// taken modulo 64 (a constant one is the count itself), and a divisor
// is or-ed with 1 (a constant one is used as is, 1 for 0).
func npApply[T npInt](op string, l, r T, side npSide) T {
	switch op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	case "&":
		return l & r
	case "|":
		return l | r
	case "^":
		return l ^ r
	case "&^":
		return l &^ r
	case "<<":
		return l << (uint64(r) % 64)
	case ">>":
		return l >> (uint64(r) % 64)
	}
	if side == npConstRight {
		if r == 0 {
			r = 1
		}
	} else {
		r |= 1
	}
	if op == "/" {
		return l / r
	}
	return l % r
}

func npCompare[T npInt](op string, l, r T) bool {
	switch op {
	case "<":
		return l < r
	case "<=":
		return l <= r
	case ">":
		return l > r
	case ">=":
		return l >= r
	case "==":
		return l == r
	}
	return l != r
}

// npTExec executes one typed statement over the locals of its kind and
// returns, for an if, which branch it takes.
func npTExec[T npInt](vars []T, s npStmt) bool {
	switch s.kind {
	case npTBinop:
		l, r := npOperands(vars, s)
		vars[s.d] = npApply(s.op, l, r, s.side)
	case npTOpAssign:
		s.a = s.d
		l, r := npOperands(vars, s)
		vars[s.d] = npApply(s.op, l, r, s.side)
	case npTIncDec:
		if s.op == "++" {
			vars[s.d]++
		} else {
			vars[s.d]--
		}
	case npTIf:
		l, r := npOperands(vars, s)
		return npCompare(s.op, l, r)
	}
	return false
}

// npExec executes the IR natively: compiled Go over the real cxl
// runtime. Every case mirrors its npRender rendering exactly.
func npExec(st *npState, arr []uint64, cells *[npCells]cxl.Ptr, stmts []npStmt) {
	vars := &st.vars
	for _, s := range stmts {
		switch s.kind {
		case npConst:
			vars[s.d] = s.lit
		case npBinop:
			a, b := vars[s.a], vars[s.b]
			var r uint64
			switch s.op {
			case "+":
				r = a + b
			case "-":
				r = a - b
			case "*":
				r = a * b
			case "&":
				r = a & b
			case "|":
				r = a | b
			case "^":
				r = a ^ b
			case "<<":
				r = a << (b % 64)
			case ">>":
				r = a >> (b % 64)
			case "/":
				r = a / (b | 1)
			case "%":
				r = a % (b | 1)
			}
			vars[s.d] = r
		case npLoad:
			vars[s.d] = cxl.Load64(cells[s.c])
		case npStore:
			cxl.Store64(cells[s.c], vars[s.a])
		case npFlush:
			cxl.Flush(cells[s.c])
			cxl.Fence()
		case npFetchAdd:
			vars[s.d] = cxl.FetchAdd64(cells[s.c], vars[s.a])
		case npSwap:
			vars[s.d] = cxl.Swap64(cells[s.c], vars[s.a])
		case npCAS:
			vars[s.d], _ = cxl.CAS64(cells[s.c], vars[s.a], vars[s.b])
		case npIdxAssign:
			arr[cxl.FetchAdd64(cells[s.c], 1)%npArr] = cxl.FetchAdd64(cells[s.c], vars[s.a])
		case npIdxOpAssign:
			switch s.op {
			case "+":
				arr[cxl.FetchAdd64(cells[s.c], 1)%npArr] += cxl.FetchAdd64(cells[s.c], vars[s.a])
			case "*":
				arr[cxl.FetchAdd64(cells[s.c], 1)%npArr] *= cxl.FetchAdd64(cells[s.c], vars[s.a])
			case "^":
				arr[cxl.FetchAdd64(cells[s.c], 1)%npArr] ^= cxl.FetchAdd64(cells[s.c], vars[s.a])
			}
		case npIf:
			if vars[s.a]%2 == 0 {
				npExec(st, arr, cells, s.body)
			} else {
				npExec(st, arr, cells, s.alt)
			}
		case npLoop:
			for i := uint64(0); i < vars[s.a]%3+1; i++ {
				npExec(st, arr, cells, s.body)
				vars[s.d] += i
			}
		case npClosure:
			func() {
				npExec(st, arr, cells, s.body)
			}()
		default:
			var taken bool
			switch npTypes[s.ty].name {
			case "uint64":
				taken = npTExec(vars[:], s)
			case "int":
				taken = npTExec(st.i[:], s)
			case "int8":
				taken = npTExec(st.b[:], s)
			case "int32":
				taken = npTExec(st.w[:], s)
			case "uint16":
				taken = npTExec(st.h[:], s)
			}
			if s.kind == npTIf {
				if taken {
					npExec(st, arr, cells, s.body)
				} else {
					npExec(st, arr, cells, s.alt)
				}
			}
		}
	}
}

// npConstant renders the constant operand of a typed statement as its
// kind's value.
func npConstant(s npStmt) string {
	switch npTypes[s.ty].name {
	case "int":
		return fmt.Sprint(int(s.lit))
	case "int8":
		return fmt.Sprint(int8(s.lit))
	case "int32":
		return fmt.Sprint(int32(s.lit))
	case "uint16":
		return fmt.Sprint(uint16(s.lit))
	}
	return fmt.Sprintf("%#x", s.lit)
}

// npRenderOperands renders L and R of a typed statement.
func npRenderOperands(s npStmt) (l, r string) {
	p := npTypes[s.ty].prefix
	l, r = fmt.Sprintf("%s%d", p, s.a), fmt.Sprintf("%s%d", p, s.b)
	switch s.side {
	case npConstLeft:
		l = "(" + npConstant(s) + ")"
	case npConstRight:
		r = "(" + npConstant(s) + ")"
	}
	return l, r
}

// npRenderOp renders L op R with npApply's guards.
func npRenderOp(s npStmt, r string) string {
	switch s.op {
	case "<<", ">>":
		if s.side == npConstRight {
			return fmt.Sprintf("%s %d", s.op, npCountLit(s))
		}
		return fmt.Sprintf("%s (uint64(%s) %% 64)", s.op, r)
	case "/", "%":
		if s.side == npConstRight {
			if npConstant(s) == "0" || npConstant(s) == "0x0" {
				return s.op + " 1"
			}
			return s.op + " " + r
		}
		return fmt.Sprintf("%s (%s | 1)", s.op, r)
	}
	return s.op + " " + r
}

// npCountLit is a constant shift count: the constant, as its kind holds
// it, modulo 64.
func npCountLit(s npStmt) uint64 {
	switch npTypes[s.ty].name {
	case "int":
		return uint64(int(s.lit)) % 64
	case "int8":
		return uint64(int8(s.lit)) % 64
	case "int32":
		return uint64(int32(s.lit)) % 64
	case "uint16":
		return uint64(uint16(s.lit)) % 64
	}
	return s.lit % 64
}

// npRender renders the IR as Go statements. Every case mirrors its
// npExec execution exactly.
func npRender(w *strings.Builder, stmts []npStmt, indent string, depth int) {
	for _, s := range stmts {
		switch s.kind {
		case npConst:
			fmt.Fprintf(w, "%sv%d = %#x\n", indent, s.d, s.lit)
		case npBinop:
			switch s.op {
			case "<<", ">>":
				fmt.Fprintf(w, "%sv%d = v%d %s (v%d %% 64)\n", indent, s.d, s.a, s.op, s.b)
			case "/", "%":
				fmt.Fprintf(w, "%sv%d = v%d %s (v%d | 1)\n", indent, s.d, s.a, s.op, s.b)
			default:
				fmt.Fprintf(w, "%sv%d = v%d %s v%d\n", indent, s.d, s.a, s.op, s.b)
			}
		case npLoad:
			fmt.Fprintf(w, "%sv%d = cxl.Load64(c%d)\n", indent, s.d, s.c)
		case npStore:
			fmt.Fprintf(w, "%scxl.Store64(c%d, v%d)\n", indent, s.c, s.a)
		case npFlush:
			fmt.Fprintf(w, "%scxl.Flush(c%d)\n%scxl.Fence()\n", indent, s.c, indent)
		case npFetchAdd:
			fmt.Fprintf(w, "%sv%d = cxl.FetchAdd64(c%d, v%d)\n", indent, s.d, s.c, s.a)
		case npSwap:
			fmt.Fprintf(w, "%sv%d = cxl.Swap64(c%d, v%d)\n", indent, s.d, s.c, s.a)
		case npCAS:
			fmt.Fprintf(w, "%sv%d, _ = cxl.CAS64(c%d, v%d, v%d)\n", indent, s.d, s.c, s.a, s.b)
		case npIdxAssign:
			fmt.Fprintf(w, "%sarr[cxl.FetchAdd64(c%d, 1)%%%d] = cxl.FetchAdd64(c%d, v%d)\n", indent, s.c, npArr, s.c, s.a)
		case npIdxOpAssign:
			fmt.Fprintf(w, "%sarr[cxl.FetchAdd64(c%d, 1)%%%d] %s= cxl.FetchAdd64(c%d, v%d)\n", indent, s.c, npArr, s.op, s.c, s.a)
		case npIf:
			fmt.Fprintf(w, "%sif v%d%%2 == 0 {\n", indent, s.a)
			npRender(w, s.body, indent+"\t", depth)
			fmt.Fprintf(w, "%s} else {\n", indent)
			npRender(w, s.alt, indent+"\t", depth)
			fmt.Fprintf(w, "%s}\n", indent)
		case npLoop:
			fmt.Fprintf(w, "%sfor i%d := uint64(0); i%d < v%d%%3+1; i%d++ {\n", indent, depth, depth, s.a, depth)
			npRender(w, s.body, indent+"\t", depth+1)
			fmt.Fprintf(w, "%s\tv%d += i%d\n", indent, s.d, depth)
			fmt.Fprintf(w, "%s}\n", indent)
		case npClosure:
			fmt.Fprintf(w, "%sfunc() {\n", indent)
			npRender(w, s.body, indent+"\t", depth)
			fmt.Fprintf(w, "%s}()\n", indent)
		case npTBinop:
			l, r := npRenderOperands(s)
			fmt.Fprintf(w, "%s%s%d = %s %s\n", indent, npTypes[s.ty].prefix, s.d, l, npRenderOp(s, r))
		case npTOpAssign:
			s.a = s.d
			_, r := npRenderOperands(s)
			fmt.Fprintf(w, "%s%s%d %s= %s\n", indent, npTypes[s.ty].prefix, s.d, s.op,
				strings.TrimPrefix(npRenderOp(s, r), s.op+" "))
		case npTIncDec:
			fmt.Fprintf(w, "%s%s%d%s\n", indent, npTypes[s.ty].prefix, s.d, s.op)
		case npTIf:
			l, r := npRenderOperands(s)
			then, els := s.body, s.alt
			if s.neg {
				fmt.Fprintf(w, "%sif !(%s %s %s) {\n", indent, l, s.op, r)
				then, els = els, then
			} else {
				fmt.Fprintf(w, "%sif %s %s %s {\n", indent, l, s.op, r)
			}
			npRender(w, then, indent+"\t", depth)
			fmt.Fprintf(w, "%s} else {\n", indent)
			npRender(w, els, indent+"\t", depth)
			fmt.Fprintf(w, "%s}\n", indent)
		}
	}
}

// npSource renders the full checked program: allocations, the seeded
// locals and slice, the generated body, and asserts pinning every
// local, slice element and cell to the native run's final values.
func npSource(stmts []npStmt, init, final npState, finalArr []uint64, finalCells [npCells]uint64) string {
	var w strings.Builder
	w.WriteString("package main\n\nimport \"cxl\"\n\nfunc Program(r *cxl.Region) {\n")
	for i := 0; i < npCells; i++ {
		fmt.Fprintf(&w, "\tc%d := r.AllocAligned(8, 64)\n", i)
	}
	w.WriteString("\tm := r.NewMachine(\"m0\")\n")
	w.WriteString("\tm.Spawn(\"t0\", func() {\n")
	for i := 0; i < npVars; i++ {
		fmt.Fprintf(&w, "\t\tv%d := uint64(%#x)\n", i, init.vars[i])
	}
	for i := 0; i < npTVars; i++ {
		fmt.Fprintf(&w, "\t\tn%d, b%d, w%d, h%d := int(%d), int8(%d), int32(%d), uint16(%d)\n",
			i, i, i, i, init.i[i], init.b[i], init.w[i], init.h[i])
	}
	fmt.Fprintf(&w, "\t\tarr := make([]uint64, %d)\n", npArr)
	npRender(&w, stmts, "\t\t", 0)
	pin := func(name, verb string, want any) {
		wants := fmt.Sprintf(verb, want)
		fmt.Fprintf(&w, "\t\tcxl.Assert(%s == %s, \"%s = %s, want %s\", %s)\n", name, wants, name, verb, wants, name)
	}
	for i := 0; i < npVars; i++ {
		pin(fmt.Sprintf("v%d", i), "%#x", final.vars[i])
	}
	for i := 0; i < npTVars; i++ {
		pin(fmt.Sprintf("n%d", i), "%d", final.i[i])
		pin(fmt.Sprintf("b%d", i), "%d", final.b[i])
		pin(fmt.Sprintf("w%d", i), "%d", final.w[i])
		pin(fmt.Sprintf("h%d", i), "%d", final.h[i])
	}
	for i, want := range finalArr {
		fmt.Fprintf(&w, "\t\tcxl.Assert(arr[%d] == %#x, \"arr[%d] = %%#x, want %#x\", arr[%d])\n",
			i, want, i, want, i)
	}
	for i := 0; i < npCells; i++ {
		fmt.Fprintf(&w, "\t\tcxl.Assert(cxl.Load64(c%d) == %#x, \"c%d = %%#x, want %#x\", cxl.Load64(c%d))\n",
			i, finalCells[i], i, finalCells[i], i)
	}
	w.WriteString("\t})\n}\n")
	return w.String()
}

// npCheck generates the program of one seed, runs it natively and
// checks the front-end reaches the same final state in every explored
// execution.
func npCheck(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	stmts := npGen(rng, 8+rng.Intn(10), 2)
	var init npState
	for i := range init.vars {
		init.vars[i] = rng.Uint64()
	}
	for i := 0; i < npTVars; i++ {
		init.i[i], init.b[i] = int(npLiteral(rng)), int8(npLiteral(rng))
		init.w[i], init.h[i] = int32(npLiteral(rng)), uint16(npLiteral(rng))
	}

	// Native leg: compiled Go against the real cxl runtime.
	var final npState
	finalArr := make([]uint64, npArr)
	var cellAddrs [npCells]cxl.Ptr
	region := cxl.RunNative(func(r *cxl.Region) {
		for i := range cellAddrs {
			cellAddrs[i] = r.AllocAligned(8, 64)
		}
		m := r.NewMachine("m0")
		m.Spawn("t0", func() {
			st := init
			npExec(&st, finalArr, &cellAddrs, stmts)
			final = st
		})
	})
	var finalCells [npCells]uint64
	for i, p := range cellAddrs {
		finalCells[i] = region.Peek64(p)
	}

	// Checked leg: the same program from source, with the native
	// final state pinned by asserts, explored under failure injection.
	src := npSource(stmts, init, final, finalArr, finalCells)
	s, err := gofront.Load("gen.go", []byte(src))
	if err != nil {
		t.Fatalf("seed %d: Load: %v\nsource:\n%s", seed, err, src)
	}
	prog, err := s.Program("Program")
	if err != nil {
		t.Fatalf("seed %d: Program: %v", seed, err)
	}
	res, err := core.Run(core.Config{Seed: seed}, prog)
	if err != nil {
		t.Fatalf("seed %d: Run: %v\nsource:\n%s", seed, err, src)
	}
	for _, b := range res.Bugs {
		t.Errorf("seed %d: front-end diverged from native: %s: %s\nsource:\n%s",
			seed, b.Kind, b.Message, src)
	}
}

// TestNativeInterpreterParity is the property test: for many seeds,
// the checked program must reach exactly the final state the
// native runtime computed.
func TestNativeInterpreterParity(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		if npCheck(t, seed); t.Failed() {
			return
		}
	}
}

// FuzzNativeInterpreterParity is the property test with the fuzzer
// choosing the generator's seed.
func FuzzNativeInterpreterParity(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 3, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(npCheck)
}
