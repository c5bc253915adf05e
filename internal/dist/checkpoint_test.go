package dist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/decision"
)

// The coordinator's checkpoint lifecycle is the engine's: written at an
// accepted completion on the engine's cadence, one write at a time and none
// after the final one, whose failure fails the run.

// TestCheckpointAtCompletionCadence: with CheckpointEvery set and an interval
// that never comes round, the coordinator writes its checkpoint at the first
// accepted completion that brings the tally CheckpointEvery executions past
// the last write — not before — and the run finishes from there.
func TestCheckpointAtCompletionCadence(t *testing.T) {
	const every = 5
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(10)
	base, err := core.Run(check, prog)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "every.cp")
	persisted := check
	persisted.CheckpointPath, persisted.CheckpointEvery, persisted.CheckpointInterval = path, every, time.Hour
	c, err := StartCoordinator(CoordinatorConfig{Check: persisted, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	talk := talker(t, c, "hand")
	// explore runs a granted lease for n executions, as a worker does, and
	// hands it back with what is left of it.
	explore := func(resp turnResponse, n int) *turnDone {
		t.Helper()
		if resp.Unit == nil {
			t.Fatal("no unit granted")
		}
		wc := check
		wc.MaxExecutions = n
		cp, _, err := core.Continue(wc, prog, core.NewCheckpoint(check.Seed, c.cfgDigest, c.progDigest,
			[][]byte{resp.Unit.Snapshot}, core.Tally{}, core.Resilience{}, 0, false, false))
		if err != nil {
			t.Fatal(err)
		}
		rep := core.UnitReport{Remainder: cp.Units}
		rep.Tally, _ = cp.Totals()
		return handBack(resp, rep)
	}
	first, err := talk("turn-1", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	second, err := talk("turn-2", explore(first, every-1), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a checkpoint after %d executions, with the cadence at %d: %v", every-1, every, err)
	}
	if _, err := talk("turn-3", explore(second, 1), false); err != nil {
		t.Fatal(err)
	}
	mid, err := core.LoadCheckpoint(path, nil)
	if err != nil || mid == nil {
		t.Fatalf("no checkpoint after %d executions: %v", every, err)
	}
	if mid.Executions < every || mid.Complete || len(mid.Units) == 0 {
		t.Fatalf("mid-run checkpoint: %d executions, complete %v, %d units; want at least %d executions and units left",
			mid.Executions, mid.Complete, len(mid.Units), every)
	}

	go RunWorker(WorkerConfig{Check: check, Program: prog, Coordinator: c.Addr(), Name: "finisher"})
	res, err := c.Wait(nil)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "after a checkpoint at a completion", res, base)
	if final, err := core.LoadCheckpoint(path, nil); err != nil || final == nil || !final.Complete {
		t.Fatalf("final checkpoint %+v, %v; want a complete one", final, err)
	}
}

// TestCheckpointEveryCompletion: with a write due at every completion and
// several workers completing at once, every checkpoint read off the disk while
// the run goes on decodes whole — unit by unit — and none goes back in time;
// the file left after Wait reports the completeness Wait returned.
func TestCheckpointEveryCompletion(t *testing.T) {
	check := core.Config{ContinueAfterBug: true}
	prog := ccehProgram(8)
	path := filepath.Join(t.TempDir(), "each.cp")
	persisted := check
	persisted.CheckpointPath, persisted.CheckpointEvery = path, 1
	c, err := StartCoordinator(CoordinatorConfig{Check: persisted, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	var workers sync.WaitGroup
	for _, name := range []string{"w1", "w2", "w3"} {
		workers.Add(1)
		go func() {
			defer workers.Done()
			RunWorker(WorkerConfig{Check: check, Program: prog, Coordinator: c.Addr(), Name: name})
		}()
	}
	over := make(chan struct{})
	reads := make(chan error, 1)
	go func() {
		last, n := 0, 0
		for running := true; running; n++ {
			select {
			case <-over:
				running = false
			default:
			}
			cp, err := core.LoadCheckpoint(path, nil)
			if err != nil {
				reads <- fmt.Errorf("read %d: %w", n, err)
				return
			}
			if cp == nil {
				continue
			}
			for _, raw := range cp.Units {
				if err := decision.NewTree().Restore(raw); err != nil {
					reads <- fmt.Errorf("read %d: a unit does not decode: %w", n, err)
					return
				}
			}
			if cp.Executions < last {
				reads <- fmt.Errorf("read %d: %d executions, after %d", n, cp.Executions, last)
				return
			}
			last = cp.Executions
		}
		reads <- nil
	}()
	res, err := c.Wait(nil)
	close(over)
	if rerr := <-reads; rerr != nil {
		t.Fatal(rerr)
	}
	workers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	final, err := core.LoadCheckpoint(path, nil)
	if err != nil || final == nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	if final.Complete != res.Complete || final.Executions != res.Executions {
		t.Fatalf("final checkpoint: complete %v after %d executions; Wait returned complete %v after %d",
			final.Complete, final.Executions, res.Complete, res.Executions)
	}
	if n := c.Registry().Snapshot()["cxlmc_checkpoint_writes_total"]; n < 2 {
		t.Fatalf("cxlmc_checkpoint_writes_total = %v, want a write per completion and the final one", n)
	}
}

// TestFinalWriteFailureFailsRun: a distributed run that completes but cannot
// install its final checkpoint fails, with the very error a local run of the
// same exploration returns: without that file the result is not durable.
func TestFinalWriteFailureFailsRun(t *testing.T) {
	prog := fixture(3)
	path := filepath.Join(t.TempDir(), "full.cp")
	diskFull := func() *chaos.Injector {
		return chaos.New(chaos.Config{Seed: 1, WriteErrPct: 100, Permanent: syscall.ENOSPC})
	}
	local := core.Config{ContinueAfterBug: true, CheckpointPath: path, Chaos: diskFull()}
	_, localErr := core.Run(local, prog)
	if !errors.Is(localErr, syscall.ENOSPC) {
		t.Fatalf("local run: %v, want ENOSPC", localErr)
	}

	persisted := local
	persisted.Chaos, persisted.CheckpointInterval = diskFull(), time.Hour
	c, err := StartCoordinator(CoordinatorConfig{Check: persisted, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	worked := make(chan *core.Result, 1)
	go func() {
		res, _ := RunWorker(WorkerConfig{Check: core.Config{ContinueAfterBug: true}, Program: prog, Coordinator: c.Addr(), Name: "w"})
		worked <- res
	}()
	res, err := c.Wait(nil)
	if w := <-worked; w == nil || !w.Complete {
		t.Fatalf("the worker did not see the run complete: %+v", w)
	}
	if err == nil || err.Error() != localErr.Error() {
		t.Fatalf("distributed run: %+v, %v; want the local run's error %q", res, err, localErr)
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("a checkpoint was installed on a full disk: %v", serr)
	}
}

// TestCoordinatorResumesCompleteRun: started on the final checkpoint of a
// complete exploration, a coordinator has nothing to hand out — Wait returns
// the checkpointed result, complete, with no worker — and a worker that turns
// up afterwards is told Done on its first turn.
func TestCoordinatorResumesCompleteRun(t *testing.T) {
	check := core.Config{ContinueAfterBug: true, CheckpointPath: filepath.Join(t.TempDir(), "done.cp")}
	prog := ccehProgram(8)
	base, err := core.Run(check, prog)
	if err != nil || !base.Complete {
		t.Fatalf("local run: %+v, %v", base, err)
	}
	c, err := StartCoordinator(CoordinatorConfig{Check: check, Program: prog, Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	var res *core.Result
	go func() {
		var err error
		res, err = c.Wait(nil)
		waited <- err
	}()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Wait did not return on a complete checkpoint with no worker")
	}
	if !res.Resumed {
		t.Fatal("resumed run not marked Resumed")
	}
	assertParity(t, "a resumed complete run", res, base)
	late, err := talker(t, c, "late")("late-1", nil, true)
	if err != nil || !late.Done || late.Unit != nil {
		t.Fatalf("a late worker's first turn: %+v, %v; want Done", late, err)
	}
}
