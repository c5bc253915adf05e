package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// What an execution restart reuses from the last one: the schedule stream
// and the threads' carrier coroutines. Neither may change what an
// execution draws, and neither may outlive the run.

// countingSource counts the values drawn from it.
type countingSource struct {
	rand.Source
	n int
}

func (c *countingSource) Int63() int64 { c.n++; return c.Source.Int63() }

// streamNs are the bounds TestScheduleStreamIsTheSeededStream draws
// under: 1..100, every power of two with its neighbours, the largest n,
// and 3<<29, which rejects about a quarter of the values it meets.
func streamNs() []int {
	var ns []int
	for n := 1; n <= 100; n++ {
		ns = append(ns, n)
	}
	for p := 2; p <= 1<<30; p <<= 1 {
		ns = append(ns, p-1, p, p+1)
	}
	return append(ns, 1<<31-1, 3<<29)
}

// TestScheduleStreamIsTheSeededStream: over many executions of random
// length — some past the memoised cap, in pairs, so a rewind after an
// overflow is followed by another — every intn draw equals what Intn on a
// source freshly seeded for that execution returns, and the source is only
// drawn from past what the stream memoised.
func TestScheduleStreamIsTheSeededStream(t *testing.T) {
	lengths := rand.New(rand.NewSource(1))
	ns := streamNs()
	for _, seed := range []int64{0, 1, 42, -7} {
		src := &countingSource{Source: rand.NewSource(seed)}
		s := &scheduleStream{src: src, seed: seed}
		prev := 0 // raw values the last execution drew
		for exec := 0; exec < 500; exec++ {
			if exec == 1 && s.buf != nil {
				t.Fatal("the first execution memoised its draws: a one-execution checker would pay for the buffer")
			}
			if exec > 0 {
				s.restart(seed)
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
				k := ns[lengths.Intn(len(ns))]
				if got, w := s.intn(k), want.Intn(k); got != w {
					t.Fatalf("seed %d, execution %d, draw %d: intn(%d) = %d, the seeded stream's Intn is %d", seed, exec, i, k, got, w)
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

// TestScheduleStreamRestartsUnderAnySeed: a stream handed from one
// checker to the next — the same seed or another, after an execution
// inside its memo or past the cap — draws exactly the stream freshly
// seeded for the new seed, and a restart under the same seed draws
// nothing from the source for what it memoised.
func TestScheduleStreamRestartsUnderAnySeed(t *testing.T) {
	lengths := rand.New(rand.NewSource(2))
	ns := streamNs()
	src := &countingSource{Source: rand.NewSource(0)}
	s := &scheduleStream{src: src}
	seeds := []int64{0, 0, 5, 5, 5, -3, 0, 7, 7}
	prev := 0 // raw values the last execution drew
	for exec, seed := range seeds {
		memo := 0
		if exec > 0 && seed == seeds[exec-1] && prev <= len(s.buf) {
			memo = len(s.buf)
		}
		s.restart(seed)
		if len(s.buf) != memo {
			t.Fatalf("execution %d under seed %d: %d draws kept, want %d", exec, seed, len(s.buf), memo)
		}
		n := lengths.Intn(2000)
		if exec == 3 {
			n = streamCap + 10
		}
		src.n = 0
		raw := &countingSource{Source: rand.NewSource(seed)}
		want := rand.New(raw)
		for i := 0; i < n; i++ {
			k := ns[lengths.Intn(len(ns))]
			if got, w := s.intn(k), want.Intn(k); got != w {
				t.Fatalf("execution %d under seed %d, draw %d: intn(%d) = %d, the seeded stream's Intn is %d", exec, seed, i, k, got, w)
			}
		}
		if live := max(0, raw.n-memo); src.n != live {
			t.Fatalf("execution %d under seed %d: %d values drawn from the source, want the %d past the %d memoised", exec, seed, src.n, live, memo)
		}
		prev = raw.n
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
// across executions end with them.
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
}

// TestGoexitFailsTheRun: thread code must not call runtime.Goexit. Its
// carrier re-raises the Goexit in the engine worker that resumed the
// thread, which releases its unit and fails the run on the way out. So Run
// returns an error naming runtime.Goexit at one worker and at two, rather
// than a verdict short of an execution or a peer waiting for the lost
// unit, and the run leaves no goroutine behind.
func TestGoexitFailsTheRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(Config{Workers: workers}, func(p *Program) {
				a := p.NewMachine("A")
				b := p.NewMachine("B")
				data := p.Alloc(8)
				a.Thread("w", func(th *Thread) {
					th.Store64(data, 42)
					th.CLFlush(data)
					runtime.Goexit()
				})
				b.Thread("r", func(th *Thread) { th.Load64(data) })
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "runtime.Goexit") {
				t.Fatalf("Workers %d: Run returned %v, want an error naming runtime.Goexit", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Workers %d: Run did not return", workers)
		}
		settle(t, fmt.Sprintf("Workers %d", workers), before)
	}
}
