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

const (
	npCells = 4
	npVars  = 4
	npArr   = 4 // elements of the local slice arr
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
)

type npStmt struct {
	kind      npKind
	d, a, b   int // local indexes
	c         int // cell index
	op        string
	lit       uint64
	body, alt []npStmt
}

// npGen generates a statement list; depth bounds nesting.
func npGen(rng *rand.Rand, n, depth int) []npStmt {
	ops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"}
	var out []npStmt
	for len(out) < n {
		s := npStmt{
			d: rng.Intn(npVars), a: rng.Intn(npVars), b: rng.Intn(npVars),
			c: rng.Intn(npCells),
		}
		k := rng.Intn(16)
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

// npExec executes the IR natively: compiled Go over the real cxl
// runtime. Every case mirrors its npRender rendering exactly.
func npExec(vars *[npVars]uint64, arr []uint64, cells *[npCells]cxl.Ptr, stmts []npStmt) {
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
				npExec(vars, arr, cells, s.body)
			} else {
				npExec(vars, arr, cells, s.alt)
			}
		case npLoop:
			for i := uint64(0); i < vars[s.a]%3+1; i++ {
				npExec(vars, arr, cells, s.body)
				vars[s.d] += i
			}
		case npClosure:
			func() {
				npExec(vars, arr, cells, s.body)
			}()
		}
	}
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
		}
	}
}

// npSource renders the full checked program: allocations, the seeded
// locals and slice, the generated body, and asserts pinning every
// local, slice element and cell to the native run's final values.
func npSource(stmts []npStmt, init [npVars]uint64, finalVars [npVars]uint64, finalArr []uint64, finalCells [npCells]uint64) string {
	var w strings.Builder
	w.WriteString("package main\n\nimport \"cxl\"\n\nfunc Program(r *cxl.Region) {\n")
	for i := 0; i < npCells; i++ {
		fmt.Fprintf(&w, "\tc%d := r.AllocAligned(8, 64)\n", i)
	}
	w.WriteString("\tm := r.NewMachine(\"m0\")\n")
	w.WriteString("\tm.Spawn(\"t0\", func() {\n")
	for i := 0; i < npVars; i++ {
		fmt.Fprintf(&w, "\t\tv%d := uint64(%#x)\n", i, init[i])
	}
	fmt.Fprintf(&w, "\t\tarr := make([]uint64, %d)\n", npArr)
	npRender(&w, stmts, "\t\t", 0)
	for i := 0; i < npVars; i++ {
		fmt.Fprintf(&w, "\t\tcxl.Assert(v%d == %#x, \"v%d = %%#x, want %#x\", v%d)\n",
			i, finalVars[i], i, finalVars[i], i)
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

// TestNativeInterpreterParity is the property test: for many seeds,
// the checked program must reach exactly the final state the
// native runtime computed.
func TestNativeInterpreterParity(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		stmts := npGen(rng, 8+rng.Intn(10), 2)
		var init [npVars]uint64
		for i := range init {
			init[i] = rng.Uint64()
		}

		// Native leg: compiled Go against the real cxl runtime.
		var finalVars [npVars]uint64
		finalArr := make([]uint64, npArr)
		var cellAddrs [npCells]cxl.Ptr
		region := cxl.RunNative(func(r *cxl.Region) {
			for i := range cellAddrs {
				cellAddrs[i] = r.AllocAligned(8, 64)
			}
			m := r.NewMachine("m0")
			m.Spawn("t0", func() {
				vars := init
				npExec(&vars, finalArr, &cellAddrs, stmts)
				finalVars = vars
			})
		})
		var finalCells [npCells]uint64
		for i, p := range cellAddrs {
			finalCells[i] = region.Peek64(p)
		}

		// Checked leg: the same program from source, with the native
		// final state pinned by asserts, explored under failure injection.
		src := npSource(stmts, init, finalVars, finalArr, finalCells)
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
		if t.Failed() {
			return
		}
	}
}
