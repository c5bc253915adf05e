package core

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the engine's one checkpoint invariant — with the lock free,
// every unexplored unit is in the queue or in held — and for what follows
// from it: a periodic checkpoint is whole whenever it is cut, and nobody
// waits for anybody to cut one.

// twoWriters is two machines persisting five values each and a reader that
// joins both: 121 executions, so four workers trade units for a while.
// onRead, when non-nil, runs in the reader's callback once per execution.
func twoWriters(onRead func()) func(*Program) {
	return func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		r := p.NewMachine("R")
		x := p.AllocAligned(8, 64)
		y := p.AllocAligned(8, 64)
		writer := func(addr Addr) func(*Thread) {
			return func(th *Thread) {
				for v := uint64(1); v <= 5; v++ {
					th.Store64(addr, v)
					th.CLFlush(addr)
					th.SFence()
				}
			}
		}
		a.Thread("wa", writer(x))
		b.Thread("wb", writer(y))
		r.Thread("r", func(th *Thread) {
			th.Join(a)
			th.Join(b)
			if onRead != nil {
				onRead()
			}
			th.Load64(x)
			th.Load64(y)
		})
	}
}

// checkpointExecs reads how many executions the checkpoint at path accounts
// for; -1 while there is none.
func checkpointExecs(path string) int {
	cp, err := LoadCheckpoint(path, nil)
	if err != nil || cp == nil {
		return -1
	}
	t, _ := cp.Totals()
	return t.Executions
}

// TestResumeFromPeriodicCheckpoint tests the cut, not just the final file:
// every checkpoint a four-worker run installs on the way — each written by
// whichever worker was at a boundary, while its peers were mid-execution or
// had just claimed a unit — must resume to the uninterrupted exploration.
func TestResumeFromPeriodicCheckpoint(t *testing.T) {
	plain := twoWriters(nil)
	want := referenceRun(t, plain)
	path := cpPath(t)

	// Every execution's reader copies the file as it stands, keeping each
	// that differs from the last copied: a cut some worker installed at its
	// boundary while this one is mid-execution, however few Ps the run has.
	// Reads race the atomic rename harmlessly: each sees one whole file or
	// the other.
	var mu sync.Mutex
	var cuts [][]byte
	prog := twoWriters(func() {
		raw, err := os.ReadFile(path)
		mu.Lock()
		defer mu.Unlock()
		if err == nil && (len(cuts) == 0 || !bytes.Equal(raw, cuts[len(cuts)-1])) {
			cuts = append(cuts, raw)
		}
	})
	res, err := Run(Config{Workers: 4, CheckpointPath: path, CheckpointEvery: 1}, prog)
	if err != nil {
		t.Fatal(err)
	}
	sameExploration(t, "checkpointing run", res, want)
	if len(cuts) < 3 {
		t.Fatalf("the readers copied %d checkpoint files; the test needs mid-run cuts", len(cuts))
	}
	t.Logf("resuming %d distinct cuts of a %d-execution run", len(cuts), want.Executions)

	for i, raw := range cuts {
		cut := filepath.Join(t.TempDir(), "cut.json")
		if err := os.WriteFile(cut, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		from := checkpointExecs(cut)
		got, err := Run(Config{Workers: 2, CheckpointPath: cut}, plain)
		if err != nil {
			t.Fatalf("cut %d (at %d executions): %v", i, from, err)
		}
		if !got.Resumed || !got.Complete {
			t.Fatalf("cut %d (at %d executions): resumed=%v complete=%v", i, from, got.Resumed, got.Complete)
		}
		if got.Executions != want.Executions || got.FailurePoints != want.FailurePoints || got.ReadFromPoints != want.ReadFromPoints {
			t.Fatalf("cut %d of %d (at %d executions) resumed to (%d execs, %d fp, %d rfp), want (%d, %d, %d): the cut lost or duplicated a unit",
				i, len(cuts), from, got.Executions, got.FailurePoints, got.ReadFromPoints,
				want.Executions, want.FailurePoints, want.ReadFromPoints)
		}
	}
}

// TestSlowExecutionDoesNotStallCheckpoints: while one worker sits in a slow
// execution, its peer keeps exploring and keeps the checkpoint file current.
// Under a stop-the-world checkpoint round the file froze (and so did the
// peer) until the slow execution reached its next boundary.
func TestSlowExecutionDoesNotStallCheckpoints(t *testing.T) {
	path := cpPath(t)
	var calls atomic.Int32
	var before, after int
	prog := twoWriters(func() {
		if calls.Add(1) != 12 {
			// On one P the peer runs only when this worker yields: let it
			// go hungry, so that it is handed a unit at a boundary before
			// the slow execution. A peer with no work cannot move the file.
			runtime.Gosched()
			return
		}
		// The slow execution: it ends when the file has moved on without it,
		// or after a grace no healthy peer needs.
		before = checkpointExecs(path)
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if after = checkpointExecs(path); after > before {
				return
			}
		}
	})
	res, err := Run(Config{Workers: 2, CheckpointPath: path, CheckpointEvery: 1}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || calls.Load() < 12 {
		t.Fatalf("complete=%v after %d reader callbacks, want a complete run of at least 12", res.Complete, calls.Load())
	}
	if after <= before {
		t.Fatalf("checkpoint stayed at %d executions for 2s while one execution was slow: a checkpoint waited for it", before)
	}
}
