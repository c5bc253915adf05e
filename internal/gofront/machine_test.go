package gofront

import "testing"

// unwound's Deep faults 41 calls deep: every level has a deferred call
// pending that faults again when the unwind runs it, and the deepest
// level faults while evaluating a defer statement's operand, after the
// statement has counted the call and taken a frame for it. Its Loop
// returns normally from a hundred deferring calls.
const unwound = `package main

import "cxl"

func Program(r *cxl.Region) { _ = r }

func Deep() { down(40) }

func down(n int) {
	defer fails()
	if n == 0 {
		defer keep(fault())
	}
	down(n - 1)
}

func fails() {
	var s []uint64
	s[0]++
}

func fault() uint64 {
	var s []uint64
	return s[1]
}

func keep(uint64) {}

func Loop() {
	for i := uint64(0); i < 100; i++ {
		once(i)
	}
}

func once(i uint64) { defer keep(i) }
`

// TestReleaseResetsTheMachine: a machine a fault unwound deep into a
// chain of failing deferred calls comes back from release like a fresh
// one — every function's frames free, no deferred-call frame taken, no
// call pending or failed, the budgets' counters at zero.
func TestReleaseResetsTheMachine(t *testing.T) {
	s, err := Load("prog.go", []byte(unwound))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m := s.newMachine(nil, nil, &arena{})
	deep := s.funcs["Deep"].code
	func() {
		defer func() {
			if _, ok := recover().(Diagnostic); !ok {
				t.Fatal("Deep did not end in a positioned fault")
			}
		}()
		m.call(deep.self, deep.pos)
	}()
	taken := 0
	for _, st := range m.frames {
		taken += st.used
	}
	if taken == 0 || m.deferred.used == 0 || m.pending == 0 || m.failedDefers == 0 || m.depth == 0 {
		t.Fatalf("the unwind left nothing to reset: %d frames, %d deferred frames, %d pending, %d failed, depth %d",
			taken, m.deferred.used, m.pending, m.failedDefers, m.depth)
	}

	m.release()
	for id, st := range m.frames {
		if st.used != 0 {
			t.Errorf("function %d has %d frames taken after release", id, st.used)
		}
	}
	if m.deferred.used != 0 || m.pending != 0 || m.failedDefers != 0 {
		t.Errorf("after release: %d deferred frames taken, %d calls pending, %d failed; want none",
			m.deferred.used, m.pending, m.failedDefers)
	}
	if m.depth != 0 || m.steps != 0 || m.elems != 0 || len(m.args) != 0 {
		t.Errorf("after release: depth %d, %d steps, %d elements, %d operands stacked; want zeros",
			m.depth, m.steps, m.elems, len(m.args))
	}
}

// TestReturnsGiveFramesBack: within one phase, a call that returns
// normally gives its frame back, and so does a deferred call that has
// run: a hundred deferring calls in a loop use one frame of each kind.
func TestReturnsGiveFramesBack(t *testing.T) {
	s, err := Load("prog.go", []byte(unwound))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	m := s.newMachine(nil, nil, &arena{})
	defer m.release()
	loop := s.funcs["Loop"].code
	m.call(loop.self, loop.pos)
	for id, st := range m.frames {
		if st.used != 0 || len(st.all) > 1 {
			t.Errorf("function %d: %d frames taken, %d made; want 0 and at most 1", id, st.used, len(st.all))
		}
	}
	if m.deferred.used != 0 || len(m.deferred.all) != 1 || m.pending != 0 {
		t.Errorf("%d deferred-call frames taken, %d made, %d calls pending; want 0, 1 and 0",
			m.deferred.used, len(m.deferred.all), m.pending)
	}
}
