package cxlmc_test

import (
	"runtime"
	"strings"
	"testing"

	cxlmc "repro"
)

// TestProgramFromSource exercises the exported source entry point: a
// small message-passing program loaded from source, run, and its repro
// token replayed — all through the public facade.
func TestProgramFromSource(t *testing.T) {
	const src = `package main

import "cxl"

func Program(r *cxl.Region) {
	data := r.AllocAligned(8, 64)
	flag := r.AllocAligned(8, 64)
	m0 := r.NewMachine("m0")
	m1 := r.NewMachine("m1")
	w := m0.Spawn("writer", func() {
		cxl.Store64(data, 42)
		// Publish without flushing data first: a crash after the flag
		// lands can lose the payload.
		cxl.Store64(flag, 1)
		cxl.Flush(flag)
		cxl.Fence()
	})
	m1.Spawn("reader", func() {
		cxl.JoinAll(w)
		if cxl.Load64(flag) == 1 {
			cxl.Assert(cxl.Load64(data) == 42, "published data lost: %d", cxl.Load64(data))
		}
	})
}
`
	prog, err := cxlmc.ProgramFromSource("mp.go", []byte(src), "")
	if err != nil {
		t.Fatalf("ProgramFromSource: %v", err)
	}
	res, err := cxlmc.Run(cxlmc.Config{}, prog)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Buggy() {
		t.Fatal("expected the unflushed-publish assertion to fire under some crash")
	}
	rres, err := cxlmc.Replay(res.Bugs[0].ReproToken, cxlmc.Config{}, prog)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !rres.Buggy() {
		t.Fatal("repro token did not reproduce the bug")
	}
}

// TestProgramFromSourceDiagnostics: the facade surfaces positioned
// diagnostics, not panics.
func TestProgramFromSourceDiagnostics(t *testing.T) {
	_, err := cxlmc.ProgramFromSource("bad.go", []byte(`package main

import "cxl"

func Program(r *cxl.Region) {
	ch := make(chan int)
	_ = ch
	_ = r
}
`), "")
	if err == nil || !strings.Contains(err.Error(), "bad.go:6") {
		t.Fatalf("err = %v, want positioned channel diagnostic", err)
	}
}

// TestSourceHostileAddressSizesNoTable: an address a source program made
// up must cost what a segfault report costs, wherever it shows up — a
// set-up write far outside the region, or a thread access whose end wraps
// past the top of the address space. The memory model's tables are
// indexed by cache line, so an address that got through the range check
// would size one.
func TestSourceHostileAddressSizesNoTable(t *testing.T) {
	const tmpl = `package main

import "cxl"

func Program(r *cxl.Region) {
	x := r.AllocAligned(8, 64)
	SETUP
	m0 := r.NewMachine("m0")
	m0.Spawn("t", func() {
		cxl.Store64(x, 1)
		THREAD
	})
}
`
	run := func(setup, thread string) (*cxlmc.Result, uint64) {
		t.Helper()
		src := strings.NewReplacer("SETUP", setup, "THREAD", thread).Replace(tmpl)
		prog, err := cxlmc.ProgramFromSource("hostile.go", []byte(src), "")
		if err != nil {
			t.Fatalf("ProgramFromSource: %v", err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := cxlmc.Run(cxlmc.Config{Workers: 1}, prog)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		runtime.ReadMemStats(&after)
		return res, after.TotalAlloc - before.TotalAlloc
	}
	run("", "") // warm the front-end's one-time allocations
	clean, base := run("", "")
	if clean.Buggy() {
		t.Fatalf("the program without the hostile access is buggy: %v", clean.Bugs)
	}
	for _, tc := range []struct{ name, setup, thread, want string }{
		{"setup write", "r.Init64(cxl.Ptr(1<<40), 1)", "", "access to [0x10000000000,0x10000000008) outside allocated region [0x40,0x48)"},
		{"wrapping load", "", "_ = cxl.Load64(cxl.Ptr(1<<64 - 4))", "access to [0xfffffffffffffffc,0x4) outside allocated region [0x40,0x48)"},
	} {
		res, alloc := run(tc.setup, tc.thread)
		if len(res.Bugs) != 1 || res.Bugs[0].Kind != cxlmc.BugSegfault || !strings.Contains(res.Bugs[0].Message, tc.want) {
			t.Errorf("%s: bugs = %v, want one segfault with %q", tc.name, res.Bugs, tc.want)
		}
		if alloc > base+1<<20 {
			t.Errorf("%s: the run allocated %d bytes, %d without the access: an address sized a table", tc.name, alloc, base)
		}
	}
}
