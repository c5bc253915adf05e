package gofront_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// recycleSource is a program whose thread evaluates body n times.
func recycleSource(body string, n int) string {
	return fmt.Sprintf(`package main

import "cxl"

type pair struct {
	a, b uint64
	next *pair
}

func Program(r *cxl.Region) {
	cell := r.Alloc(8)
	m := r.NewMachine("m0")
	m.Spawn("t", func() {
		var sum uint64
		var keep func() uint64
		for i := uint64(0); i < %d; i++ {
			%s
		}
		if keep != nil {
			sum += keep()
		}
		cxl.Store64(cell, sum)
	})
}
`, n, body)
}

// TestExecutionValuesRecycled: the values an execution makes that die
// with it — a func literal's closure with what it captures, a captured
// variable's cell, an &T{} object, a slice literal's backing array and box
// — come from the execution's arena, so once a run has grown it, making
// them allocates nothing: a warm run evaluating one 400 times allocates
// what one evaluating it once does.
func TestExecutionValuesRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	for _, c := range []struct{ name, body string }{
		{"func literal", `f := func() uint64 { return i + sum }; sum += f()`},
		{"captured variable", `x := i; if i == 0 { keep = func() uint64 { return x } }; sum += x`},
		{"&T{}", `p := &pair{a: i, next: &pair{b: sum}}; sum += p.a + p.next.b`},
		{"slice literal", `s := []uint64{i, sum, 3}; sum += s[0] + s[2]; ps := []*pair{nil}; if ps[0] != nil { sum++ }`},
	} {
		allocs := func(n int) float64 {
			prog, err := load(t, recycleSource(c.body, n)).Program("Program")
			if err != nil {
				t.Fatalf("%s: Program: %v", c.name, err)
			}
			cfg := core.Config{Workers: 1, MaxExecutions: 1}
			if _, err := core.Run(cfg, prog); err != nil {
				t.Fatalf("%s: Run: %v", c.name, err)
			}
			return testing.AllocsPerRun(20, func() {
				if _, err := core.Run(cfg, prog); err != nil {
					t.Fatalf("%s: Run: %v", c.name, err)
				}
			})
		}
		once, many := allocs(1), allocs(400)
		if many != once {
			t.Errorf("%s: a warm run evaluating it 400 times made %.0f allocations, once %.0f", c.name, many, once)
		}
	}
}

// TestRecycledSliceLiteralGrowsAsGo: a slice literal's backing array comes
// from the arena, recycled from execution to execution and from run to
// run, and still behaves as compiled Go's: its capacity is its length, an
// append moves it to an array of its own that later appends within
// capacity share, and the capacities append grows it to are compiled Go's,
// step for step.
func TestRecycledSliceLiteralGrowsAsGo(t *testing.T) {
	s := []uint64{1, 2, 3}
	var asserts strings.Builder
	for i := 0; i < 40; i++ {
		s = append(s, uint64(i))
		fmt.Fprintf(&asserts, "\t\ts = append(s, %d)\n\t\tcxl.Assert(cap(s) == %d, \"cap after append %d: %%d, compiled Go's %d\", cap(s))\n", i, cap(s), i, cap(s))
	}
	ns := []int{-1, -2}
	ns = append(ns, -3)
	src := fmt.Sprintf(`package main

import "cxl"

func Program(r *cxl.Region) {
	cell := r.AllocAligned(8, 64)
	w := r.NewMachine("w")
	w.Spawn("flush", func() {
		cxl.Store64(cell, 1)
		cxl.Flush(cell)
		cxl.Store64(cell, 2)
		cxl.Flush(cell)
	})
	o := r.NewMachine("o")
	o.Spawn("grow", func() {
		cxl.Join(w)
		lit := []uint64{7, 8, 9}
		t := append(lit, 4)
		t[0] = 99
		cxl.Assert(lit[0] == 7, "append past the literal's capacity shares its array: lit[0] = %%d", lit[0])
		u := append(t, 5)
		u[1] = 42
		cxl.Assert(t[1] == 42 && cap(t) == 6, "append within capacity does not share: t[1] = %%d, cap %%d", t[1], cap(t))
		ns := []int{-1, -2}
		ns = append(ns, -3)
		cxl.Assert(cap(ns) == %d && ns[2] == -3, "cap(ns) = %%d, compiled Go's %d", cap(ns))
		s := []uint64{1, 2, 3}
		cxl.Assert(cap(s) == 3, "a literal's capacity is %%d", cap(s))
%s	})
}
`, cap(ns), cap(ns), asserts.String())
	prog, err := load(t, src).Program("Program")
	if err != nil {
		t.Fatalf("Program: %v", err)
	}
	for _, workers := range []int{1, 1, 2} {
		res, err := core.Run(core.Config{Workers: workers, ContinueAfterBug: true}, prog)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.Executions < 2 || len(res.Bugs) != 0 {
			t.Fatalf("%d workers: %d executions, bugs %v; want several, none", workers, res.Executions, res.Bugs)
		}
	}
}

// TestRunawayValuesAreNotKept: an execution that makes more values of a
// kind than an arena keeps gets the rest from the heap, and the arena
// still hands out zeroed values to the next execution, so a loop making
// captured variables, objects, closures and slice literals past the
// arena's bound runs as before, every execution alike.
func TestRunawayValuesAreNotKept(t *testing.T) {
	src := fmt.Sprintf(`package main

import "cxl"

type pair struct {
	a, b uint64
	next *pair
}

func Program(r *cxl.Region) {
	cell := r.AllocAligned(8, 64)
	w := r.NewMachine("w")
	w.Spawn("flush", func() {
		cxl.Store64(cell, 1)
		cxl.Flush(cell)
		cxl.Store64(cell, 2)
		cxl.Flush(cell)
	})
	o := r.NewMachine("o")
	o.Spawn("loop", func() {
		cxl.Join(w)
		var sum uint64
		for i := uint64(0); i < %d; i++ {
			x := i
			p := &pair{a: x}
			f := func() uint64 { return p.a + x }
			cxl.Assert(f() == 2*i && p.b == 0 && p.next == nil, "a recycled value was not zeroed at %%d", i)
			s := []uint64{i, 0}
			sum += s[0] + s[1]
		}
		cxl.Assert(sum == %d, "sum %%d", sum)
	})
}
`, 3<<16, (3<<16)*(3<<16-1)/2)
	res := run(t, src, core.Config{Workers: 1, ContinueAfterBug: true})
	if res.Executions < 2 || len(res.Bugs) != 0 {
		t.Fatalf("%d executions, bugs %v; want several, none", res.Executions, res.Bugs)
	}
}
