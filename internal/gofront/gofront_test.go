package gofront_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gofront"
)

func load(t testing.TB, src string) *gofront.Source {
	t.Helper()
	s, err := gofront.Load("prog.go", []byte(src))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

func run(t *testing.T, src string, cfg core.Config) *core.Result {
	t.Helper()
	s := load(t, src)
	prog, err := s.Program("Program")
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	res, err := core.Run(cfg, prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestInterpSemantics drives compiled code through the Go semantics
// corner cases that must match compiled code exactly: sized-integer
// wraparound, shift counts at and beyond the width, signed division
// overflow, closures, per-iteration loop variables, slices, structs and
// methods. Every check is a cxl.Assert on a simulated thread, so a
// semantic divergence is a reported bug.
func TestInterpSemantics(t *testing.T) {
	const src = `package main

import "cxl"

type counter struct {
	addr cxl.Ptr
	step uint64
}

func (c *counter) bump() uint64 {
	return cxl.FetchAdd64(c.addr, c.step)
}

type node struct {
	v    uint64
	next *node
	kids []*node
}

func (n *node) sum() uint64 {
	if n == nil {
		return 0
	}
	return n.v + n.next.sum()
}

func seven() uint64 { return 7 }

// A deferred call uses the result registers too; the function's own
// results must survive it.
func deferring(n *node) (uint64, bool) {
	defer func() { n.v = seven() }()
	return 5, true
}

func Program(r *cxl.Region) {
	cell := r.Alloc(8)
	m := r.NewMachine("m0")
	m.Spawn("t0", func() {
		// Sized-integer wraparound.
		var x8 int8 = 127
		x8++
		cxl.Assert(int(x8) == -128, "int8 wrap: %d", x8)
		var u8 uint8 = 200
		u8 += 100
		cxl.Assert(uint64(u8) == 44, "uint8 wrap: %d", u8)

		// Shifts at and beyond the width.
		var c uint = 64
		cxl.Assert(uint64(1)<<c == 0, "shift-out")
		var s int64 = -8
		cxl.Assert(s>>c == -1, "signed shift floor: %d", s>>c)
		cxl.Assert(s>>2 == -2, "signed shift: %d", s>>2)

		// Signed division overflow wraps, matching the spec.
		minInt := int64(-1) << 63
		div := minInt / -1
		cxl.Assert(div == minInt, "minint division: %d", div)
		cxl.Assert(7%-2 == 1 && -7%2 == -1, "remainder signs")

		// Golden-ratio multiply wraps like uint64 arithmetic.
		k := uint64(3)
		v := k*0x9E3779B97F4A7C15 | 1
		cxl.Assert(v == 0xdaa66d2c7ddf743f, "wrapping multiply: %#x", v)

		// Closures share their defining frame.
		total := uint64(0)
		add := func(d uint64) { total += d }
		add(2)
		add(3)
		cxl.Assert(total == 5, "closure capture: %d", total)

		// Per-iteration loop variables (Go 1.22).
		var fns []func() uint64
		for i := uint64(0); i < 3; i++ {
			fns = append(fns, func() uint64 { return i })
		}
		sum := uint64(0)
		for _, f := range fns {
			sum += f()
		}
		cxl.Assert(sum == 3, "per-iteration loop vars: %d", sum)

		// Slices are headers over shared backing.
		s1 := []uint64{1, 2, 3}
		s2 := s1
		s2[0] = 10
		cxl.Assert(s1[0] == 10, "slice aliasing")
		s2 = append(s2, 4)
		cxl.Assert(len(s1) == 3 && len(s2) == 4, "append lengths")

		// Structs with methods, via the shared region.
		ctr := &counter{addr: cell, step: 2}
		ctr.bump()
		ctr.bump()
		cxl.Assert(cxl.Load64(cell) == 4, "method calls: %d", cxl.Load64(cell))

		// Range over int, switch, defer ordering.
		n := 0
		for range 4 {
			n++
		}
		cxl.Assert(n == 4, "range over int: %d", n)
		grade := ""
		switch k := n; k {
		case 3:
			grade = "three"
		case 4:
			grade = "four"
		default:
			grade = "other"
		}
		cxl.Assert(grade == "four", "switch: %s", grade)
		check := uint64(0)
		func() {
			defer func() { check = check*10 + 1 }()
			defer func() { check = check*10 + 2 }()
			check = 9
		}()
		cxl.Assert(check == 921, "defer LIFO order: %d", check)
		nd := &node{}
		got, ok := deferring(nd)
		cxl.Assert(got == 5 && ok && nd.v == 7, "results survive a deferred call: %d %d", got, nd.v)
		var log []uint64
		func() {
			for i := uint64(0); i < 3; i++ {
				defer func(k uint64) { log = append(log, k) }(i * 10)
			}
		}()
		cxl.Assert(len(log) == 3 && log[0] == 20 && log[2] == 0, "defer arguments are evaluated at the defer")

		// Assignment evaluates the target's operands once, and index
		// operands and right-hand calls in lexical order.
		cxl.Store64(cell, 0)
		a := make([]uint64, 4)
		a[cxl.FetchAdd64(cell, 1)] += 5
		cxl.Assert(cxl.Load64(cell) == 1 && a[0] == 5, "op-assign index evaluated %d times", cxl.Load64(cell))
		a[cxl.FetchAdd64(cell, 1)] = cxl.FetchAdd64(cell, 1)
		cxl.Assert(a[1] == 2 && a[2] == 0, "index before right-hand side: a[1]=%d a[2]=%d", a[1], a[2])
		a[cxl.FetchAdd64(cell, 1)]++
		cxl.Assert(cxl.Load64(cell) == 4 && a[3] == 1, "++ index evaluated once")
		i := 0
		i, a[i] = 2, 9
		cxl.Assert(i == 2 && a[0] == 9, "tuple assignment reads operands before it stores")

		// nil is the typed nil of wherever it flows.
		list := &node{v: 1, next: &node{v: 2, next: nil}}
		cxl.Assert(list.sum() == 3, "method on a nil receiver: %d", list.sum())
		list.kids = append(list.kids, nil, list)
		cxl.Assert(list.kids[0] == nil && list.kids[1] == list, "nil slice element")
		list.kids = []*node{nil, {v: 9}}
		cxl.Assert(list.kids[0] == nil && list.kids[1].v == 9, "nil literal element")
		var fn func()
		var empty []uint64
		cxl.Assert(fn == nil && empty == nil && list.next.next == nil, "zero values are nil")
	})
}
`
	res := run(t, src, core.Config{})
	if len(res.Bugs) != 0 {
		for _, b := range res.Bugs {
			t.Errorf("unexpected bug: %s: %s", b.Kind, b.Message)
		}
	}
}

// TestAssignmentEvaluation pins, one program each, the two places the
// tree-walking interpreter checked a different program than the Go
// compiler builds: it evaluated an op-assignment's index twice (an extra
// fetch-add, so an extra simulated event), and every right-hand side
// before any left-hand index.
func TestAssignmentEvaluation(t *testing.T) {
	const tmpl = `package main

import "cxl"

func Program(r *cxl.Region) {
	c := r.Alloc(8)
	m := r.NewMachine("m0")
	m.Spawn("t", func() {
		a := make([]uint64, 2)
		BODY
	})
}
`
	for name, body := range map[string]string{
		"index evaluated once": `a[cxl.FetchAdd64(c, 1)] += 5
		cxl.Assert(cxl.Load64(c) == 1 && a[0] == 5, "c = %d, a[0] = %d", cxl.Load64(c), a[0])`,
		"index before right-hand side": `a[cxl.FetchAdd64(c, 1)] = cxl.FetchAdd64(c, 1)
		cxl.Assert(a[0] == 1 && a[1] == 0, "a = [%d %d]", a[0], a[1])`,
	} {
		t.Run(name, func(t *testing.T) {
			for _, b := range run(t, strings.Replace(tmpl, "BODY", body, 1), core.Config{}).Bugs {
				t.Errorf("diverged from compiled Go: %s: %s", b.Kind, b.Message)
			}
		})
	}
}

// TestInterpTwoMachines exercises spawn/join/mutex lowering across two
// machines with failure injection on: the assertion only runs when the
// adder machines survive, so the whole exploration must stay bug-free.
func TestInterpTwoMachines(t *testing.T) {
	const src = `package main

import "cxl"

func Program(r *cxl.Region) {
	total := r.Alloc(8)
	mu := r.NewMutex("total")
	m0 := r.NewMachine("m0")
	m1 := r.NewMachine("m1")
	adder := func() {
		if mu.Lock() {
			// Previous owner died mid-update; this workload's updates
			// are atomic, so nothing to repair.
		}
		v := cxl.Load64(total)
		cxl.Store64(total, v+1)
		cxl.Flush(total)
		cxl.Fence()
		mu.Unlock()
	}
	t0 := m0.Spawn("a0", adder)
	t1 := m1.Spawn("a1", adder)
	m0.Spawn("check", func() {
		cxl.JoinAll(t0, t1)
		got := cxl.Load64(total)
		cxl.Assert(got <= 2, "count overshoot: %d", got)
	})
}
`
	res := run(t, src, core.Config{})
	if len(res.Bugs) != 0 {
		for _, b := range res.Bugs {
			t.Errorf("unexpected bug: %s: %s", b.Kind, b.Message)
		}
	}
	if res.Stats.Executions < 2 {
		t.Errorf("expected >1 executions with failure injection, got %d", res.Stats.Executions)
	}
}

// TestLoadDiagnostics pins the load-time diagnostics: positioned,
// capped, and raised for the documented unsupported constructs.
func TestLoadDiagnostics(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{
			name: "go statement",
			src: `package main
import "cxl"
func Program(r *cxl.Region) {
	m := r.NewMachine("m0")
	m.Spawn("t", func() {
		go func() {}()
	})
}
`,
			want: "prog.go:6:3: go statements are unsupported",
		},
		{
			name: "map type",
			src: `package main
import "cxl"
func Program(r *cxl.Region) {
	_ = r
	seen := map[uint64]bool{}
	_ = seen
}
`,
			want: "map types are unsupported",
		},
		{
			name: "bad import",
			src: `package main
import (
	"cxl"
	"fmt"
)
func Program(r *cxl.Region) { fmt.Println(r) }
`,
			want: `cannot import "fmt"`,
		},
		{
			name: "type error",
			src: `package main
import "cxl"
func Program(r *cxl.Region) {
	var x uint64 = "nope"
	cxl.Store64(cxl.Ptr(64), x)
}
`,
			want: "prog.go:4:17",
		},
		{
			name: "package-level var",
			src: `package main
import "cxl"
var shared uint64
func Program(r *cxl.Region) { _ = r }
`,
			want: "package-level variables are unsupported",
		},
		// In the subset's syntax, but nothing the compiler can lower: still
		// a load-time diagnostic, not a fault mid-exploration.
		{
			name: "method value",
			src: `package main
import "cxl"
type pair struct{ a, b uint64 }
func (p *pair) first() uint64 { return p.a }
func Program(r *cxl.Region) {
	_ = r
	p := &pair{}
	get := p.first
	_ = get
}
`,
			want: "prog.go:8:9: unsupported selector first (method values must be called directly)",
		},
		{
			name: "range assigning",
			src: `package main
import "cxl"
type pair struct{ a, b uint64 }
func Program(r *cxl.Region) {
	_ = r
	var i int
	for i = range []uint64{1} {
	}
	_ = i
}
`,
			want: "prog.go:7:2: range with = assignment is unsupported (use :=)",
		},
		{
			name: "struct variable",
			src: `package main
import "cxl"
type pair struct{ a, b uint64 }
func Program(r *cxl.Region) {
	_ = r
	var p pair
	_ = p
}
`,
			want: "prog.go:6:6: cannot zero-initialize a variable of type main.pair",
		},
		{
			name: "struct literal by value",
			src: `package main
import "cxl"
type pair struct{ a, b uint64 }
func Program(r *cxl.Region) {
	_ = r
	p := pair{a: 1}
	_ = p
}
`,
			want: "prog.go:6:7: struct values must be created with &T{...}",
		},
		{
			name: "keyed slice literal",
			src: `package main
import "cxl"
type pair struct{ a, b uint64 }
func Program(r *cxl.Region) {
	_ = r
	xs := []uint64{1: 5}
	_ = xs
}
`,
			want: "prog.go:6:17: keyed slice literals are unsupported",
		},
		{
			name: "make of a non-slice",
			src: `package main
import "cxl"
type pair struct{ a, b uint64 }
type table map[uint64]uint64
func Program(r *cxl.Region) {
	_ = r
	t := make(table)
	_ = t
}
`,
			want: "prog.go:7:7: make of non-slice type is unsupported",
		},
		{
			name: "conversion",
			src: `package main
import "cxl"
type pair struct{ a, b uint64 }
func Program(r *cxl.Region) {
	_ = r
	n := len("x")
	s := string(rune(n))
	_ = s
}
`,
			want: "prog.go:7:7: unsupported conversion to string",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := gofront.Load("prog.go", []byte(tc.src))
			if err == nil {
				t.Fatalf("Load succeeded, want diagnostic containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("diagnostics = %q, want substring %q", err, tc.want)
			}
			var list gofront.DiagnosticList
			if !errors.As(err, &list) || len(list) == 0 || len(list) > 10 {
				t.Fatalf("Load error %T (%d diagnostics), want a DiagnosticList of 1 to 10", err, len(list))
			}
		})
	}
}

// TestEntryValidation covers -entry resolution errors.
func TestEntryValidation(t *testing.T) {
	s := load(t, `package main
import "cxl"
func Program(r *cxl.Region) { _ = r }
func Other(x uint64) uint64 { return x }
`)
	if _, err := s.Program("Missing"); err == nil || !strings.Contains(err.Error(), `no function "Missing"`) {
		t.Errorf("missing entry: %v", err)
	}
	if _, err := s.Program("Other"); err == nil || !strings.Contains(err.Error(), "func(*cxl.Region)") {
		t.Errorf("bad signature: %v", err)
	}
	if got := s.Entries(); len(got) != 1 || got[0] != "Program" {
		t.Errorf("Entries = %v, want [Program]", got)
	}
}

// TestPhaseFaults pins the positioned phase-discipline faults: thread
// operations during setup fail the run with a file:line error, and
// setup operations on a thread report a positioned bug.
func TestPhaseFaults(t *testing.T) {
	s := load(t, `package main
import "cxl"
func Program(r *cxl.Region) {
	p := r.Alloc(8)
	cxl.Store64(p, 1)
}
`)
	prog, err := s.Program("Program")
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	_, err = core.Run(core.Config{}, prog)
	if err == nil || !strings.Contains(err.Error(), "prog.go:5:2") {
		t.Fatalf("setup-phase thread op: err = %v, want prog.go:5:2 position", err)
	}

	s2 := load(t, `package main
import "cxl"
func Program(r *cxl.Region) {
	m := r.NewMachine("m0")
	m.Spawn("t", func() {
		r.Alloc(8)
	})
}
`)
	prog2, err := s2.Program("Program")
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	res, err := core.Run(core.Config{}, prog2)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := false
	for _, b := range res.Bugs {
		if b.Kind == core.BugPanic && strings.Contains(b.Message, "prog.go:6:3") && strings.Contains(b.Message, "setup-only") {
			found = true
		}
	}
	if !found {
		t.Fatalf("setup op on thread: bugs = %+v, want positioned setup-only BugPanic", res.Bugs)
	}
}

// TestRuntimeFaultPositioned: dynamic faults carry file:line, never a
// bare panic, at the operation that faults — whichever operand form the
// compiler gave its operands, and for the budgets at the call or loop
// that exceeds them.
func TestRuntimeFaultPositioned(t *testing.T) {
	for _, c := range []struct{ name, body, pos, msg string }{
		{"index", `xs := []uint64{1, 2}
		i := len(xs) + 1
		cxl.Store64(cxl.Ptr(0), xs[i])`, "prog.go:8:30", "index out of range [3] with length 2"},
		{"divide", `var z uint64
		cxl.Store64(cxl.Ptr(0), 5/z)`, "prog.go:7:27", "integer divide by zero"},
		{"shift", `n := -1
		cxl.Store64(cxl.Ptr(0), uint64(1)<<n)`, "prog.go:7:27", "negative shift amount"},
		{"steps", `for i := 0; i >= 0; i++ {
		}`, "prog.go:6:3", "statement budget exceeded"},
		{"depth", `var down func(n int) int
		down = func(n int) int { return down(n + 1) }
		cxl.Store64(cxl.Ptr(0), uint64(down(0)))`, "prog.go:7:35", "interpreted call stack exceeds 4096 frames"},
	} {
		res := run(t, `package main
import "cxl"
func Program(r *cxl.Region) {
	m := r.NewMachine("m0")
	m.Spawn("t", func() {
		`+c.body+`
	})
}
`, core.Config{})
		found := false
		for _, b := range res.Bugs {
			if b.Kind == core.BugPanic && strings.Contains(b.Message, c.pos) && strings.Contains(b.Message, c.msg) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: bugs = %+v, want a BugPanic at %s: %s", c.name, res.Bugs, c.pos, c.msg)
		}
	}
}
