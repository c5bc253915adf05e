package core

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// What an execution restart reuses from the last one: the schedule stream
// and the threads' carrier goroutines. Neither may change what an
// execution draws, and neither may outlive the run.

// countingSource counts the values drawn from it.
type countingSource struct {
	rand.Source
	n int
}

func (c *countingSource) Int63() int64 { c.n++; return c.Source.Int63() }

// TestScheduleStreamIsTheSeededStream: over many executions of random
// length — some past the memoised cap, in pairs, so a rewind after an
// overflow is followed by another — every Intn draw equals what a source
// freshly seeded for that execution returns, and the source is only drawn
// from past what the stream memoised.
func TestScheduleStreamIsTheSeededStream(t *testing.T) {
	lengths := rand.New(rand.NewSource(1))
	for _, seed := range []int64{0, 1, 42, -7} {
		src := &countingSource{Source: rand.NewSource(seed)}
		s := &scheduleStream{src: src, seed: seed}
		rng := rand.New(s)
		prev := 0 // raw values the last execution drew
		for exec := 0; exec < 500; exec++ {
			if exec == 1 && s.buf != nil {
				t.Fatal("the first execution memoised its draws: a one-execution checker would pay for the buffer")
			}
			if exec > 0 {
				s.rewind()
			}
			n := lengths.Intn(2000)
			if exec%100 == 50 || exec%100 == 51 {
				n = streamCap + lengths.Intn(streamCap/4)
			}
			memo := len(s.buf)
			if exec > 1 && prev <= streamCap && memo < prev {
				t.Fatalf("seed %d, execution %d: %d draws memoised, the last execution drew %d", seed, exec, memo, prev)
			}
			src.n = 0
			raw := &countingSource{Source: rand.NewSource(seed)}
			want := rand.New(raw)
			for i := 0; i < n; i++ {
				k := 1 + lengths.Intn(100)
				if got, w := rng.Intn(k), want.Intn(k); got != w {
					t.Fatalf("seed %d, execution %d, draw %d: Intn(%d) = %d, the seeded stream's is %d", seed, exec, i, k, got, w)
				}
			}
			if live := max(0, raw.n-memo); src.n != live {
				t.Fatalf("seed %d, execution %d: %d values drawn from the source, want the %d past the %d memoised", seed, exec, src.n, live, memo)
			}
			prev = raw.n
		}
		if len(s.buf) > streamCap {
			t.Fatalf("seed %d: %d draws memoised, cap %d", seed, len(s.buf), streamCap)
		}
	}
}

// settle waits for the goroutine count to fall to at most want: a worker
// or carrier that returned is counted until it has run off its stack.
func settle(t *testing.T, what string, want int) {
	t.Helper()
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(wait) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// panicky is resilientBuggy with the stale read dividing by zero: a
// thread panic in some executions, not all.
func panicky(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	data := p.Alloc(8)
	flag := p.AllocAligned(8, 64)
	a.Thread("w", func(th *Thread) {
		th.Store64(data, 42)
		th.Store64(flag, 1)
		th.CLFlush(flag)
		th.SFence()
	})
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		if th.Load64(flag) == 1 {
			_ = 42 / th.Load64(data)
		}
	})
}

// TestRunLeavesNoGoroutines: every way a run, a replay or a continuation
// ends closes the schedulers its checkers used, so the carriers they kept
// across executions end with them; a wedged run leaves only the wedged
// goroutine, until it unwinds.
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		res, err := Run(Config{Workers: workers}, resilientNoisy)
		if err != nil || !res.Buggy() {
			t.Fatalf("Run at %d workers: %v, bugs %v", workers, err, res.Bugs)
		}
		settle(t, "Run", before)
		// The token is minimized: replaying it is another checker's life.
		if _, err := Replay(res.Bugs[0].ReproToken, Config{}, resilientNoisy); err != nil {
			t.Fatal(err)
		}
		settle(t, "Replay", before)
	}

	if _, _, err := Continue(Config{Workers: 2, MaxExecutions: 3}, resilientClean, nil); err != nil {
		t.Fatal(err)
	}
	settle(t, "Continue", before)

	res, err := Run(Config{Workers: 1, ContinueAfterBug: true}, panicky)
	if err != nil || !res.Complete || len(res.Bugs) == 0 || res.Bugs[0].Kind != BugPanic {
		t.Fatalf("ContinueAfterBug: %v, complete %v, bugs %v", err, res.Complete, res.Bugs)
	}
	settle(t, "ContinueAfterBug", before)

	stop := make(chan struct{})
	var setups atomic.Int32
	res, err = Run(Config{Workers: 2, Stop: stop}, func(p *Program) {
		if setups.Add(1) == 5 {
			close(stop)
		}
		resilientClean(p)
	})
	if err != nil || !res.Interrupted || res.Complete {
		t.Fatalf("Stop: %v, interrupted %v, complete %v", err, res.Interrupted, res.Complete)
	}
	settle(t, "Stop", before)

	// The first execution whose writer failed wedges, and the next one
	// resets the dirty state, closing the quarantined scheduler. The thread
	// blocks right after a Yield: nothing it read of the checker, which the
	// engine goes on writing without it, is unordered with those writes.
	unblock := make(chan struct{})
	var wedged atomic.Bool
	res, err = Run(Config{WedgeTimeout: 50 * time.Millisecond, Workers: 1, ContinueAfterBug: true}, func(p *Program) {
		a := p.NewMachine("A")
		x, y := p.AllocAligned(8, 64), p.AllocAligned(8, 64)
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 1)
			th.CLFlush(x)
			th.Store64(y, 1)
			th.CLFlush(y)
		})
		p.NewMachine("B").Thread("stuck", func(th *Thread) {
			failed := th.Join(a)
			th.Yield()
			if failed && !wedged.Swap(true) {
				<-unblock
			}
			th.Load64(x) // unwinds if the watchdog abandoned it
			th.Load64(y)
		})
	})
	if err != nil || len(res.Bugs) != 1 || res.Bugs[0].Kind != BugWedged || res.Bugs[0].Execution >= res.Executions {
		t.Fatalf("wedge: %v, %d executions, bugs %v", err, res.Executions, res.Bugs)
	}
	settle(t, "BugWedged", before+1)
	close(unblock)
	settle(t, "the wedged goroutine's unwind", before)
}
