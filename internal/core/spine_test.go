package core_test

// End-to-end checks of the tally spine on a real data structure. They live
// in the external test package because CCEH sits above core in the import
// graph.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
)

// spineProgram is CCEH with its seeded missing-flush bug, checked from a
// second machine, then on a third a flush nobody is left to observe
// (which reduction prunes) and two threads that race on a plain word —
// last, so the race aborts nothing and every execution that gets that far
// reports it. One run moves every counter.
//
// testdata/checkpoint_v2_parent.json was written from exactly this program:
// changing it changes the program digest and orphans the fixture.
func spineProgram(p *core.Program) {
	const keys = 6
	idx := cceh.Benchmark.New(p, 1)
	ready := p.AllocAligned(8, 64)
	progress := p.AllocAligned(keys*8, 64)
	scratch := p.AllocAligned(16, 64)
	node0 := p.NewMachine("node0")
	node1 := p.NewMachine("node1")
	node2 := p.NewMachine("node2")
	initT := node0.Thread("init", func(t *core.Thread) {
		idx.Init(t)
		t.Store64(ready, 1)
		t.CLFlush(ready)
		t.SFence()
	})
	worker := node0.Thread("w0", func(t *core.Thread) {
		t.JoinThreads(initT)
		if t.Load64(ready) != 1 {
			return
		}
		for k := keys; k >= 1; k-- {
			idx.Insert(t, uint64(k), recipe.Value(uint64(k)))
			t.Store64(progress+core.Addr((k-1)*8), 1)
			t.CLFlush(progress + core.Addr((k-1)*8))
			t.SFence()
		}
	})
	check := node1.Thread("check", func(t *core.Thread) {
		t.JoinThreads(initT, worker)
		if t.Load64(ready) != 1 {
			return
		}
		for k := 1; k <= keys; k++ {
			if t.Load64(progress+core.Addr((k-1)*8)) != 1 {
				continue
			}
			v, found := idx.Lookup(t, uint64(k))
			t.Assert(found && v == recipe.Value(uint64(k)), "committed key %d lost", k)
		}
	})
	tail := node2.Thread("tail", func(t *core.Thread) {
		t.JoinThreads(worker, check)
		t.Store64(scratch+8, 1)
		t.CLFlush(scratch + 8)
		t.SFence()
	})
	node2.Thread("racer-st", func(t *core.Thread) {
		t.JoinThreads(tail)
		t.Store64(scratch, 1)
	})
	node2.Thread("racer-ld", func(t *core.Thread) {
		t.JoinThreads(tail)
		t.Load64(scratch)
	})
}

func spineConfig() core.Config {
	return core.Config{Workers: 1, ContinueAfterBug: true, RaceDetect: core.SwitchOn}
}

func bugSet(bugs []core.Bug) []string {
	out := make([]string, len(bugs))
	for i, b := range bugs {
		out[i] = b.Kind.String() + ": " + b.Message
	}
	sort.Strings(out)
	return out
}

func jsonKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestParentCheckpointFixture: a version-2 checkpoint written by the
// commit before Counters existed (Workers: 4, stopped by MaxExecutions
// halfway through spineProgram; finished units, four outstanding ones,
// seven bugs, every counter non-zero) must load, resume to the result that
// commit resumed it to, re-encode under the same JSON keys, and carry
// repro tokens that still replay.
func TestParentCheckpointFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v2_parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "resume.ck")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cp, err := core.LoadCheckpoint(path, nil)
	if err != nil || cp == nil {
		t.Fatalf("LoadCheckpoint: %v, %v", cp, err)
	}
	tally, _ := cp.Totals()
	// BaseCreated is [4 0 0] in the file: four read-from points (kind 0)
	// from finished units, the rest still embedded in the outstanding ones.
	wantMid := core.Counters{Executions: 25, ReadFromPoints: 4, Steps: 3236,
		Pruned: 15, PrefixForks: 16, StepsSaved: 2106, RaceReports: 15}
	if tally.Counters != wantMid || len(tally.Bugs) != 6 || len(cp.Units) != 4 {
		t.Fatalf("fixture decodes to %+v, %d bugs, %d units; want %+v, 6 bugs, 4 units",
			tally.Counters, len(tally.Bugs), len(cp.Units), wantMid)
	}
	again, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(t, again), jsonKeys(t, raw); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-encoded checkpoint keys:\n got %v\nwant %v", got, want)
	}
	for _, b := range tally.Bugs {
		rep, err := core.Replay(b.ReproToken, spineConfig(), spineProgram)
		if err != nil || len(rep.Bugs) != 1 || rep.Bugs[0].Message != b.Message {
			t.Fatalf("parent-minted token for %q does not replay: %v %+v", b.Message, err, rep)
		}
	}

	cfg := spineConfig()
	cfg.CheckpointPath = path
	res, err := core.Run(cfg, spineProgram)
	if err != nil {
		t.Fatal(err)
	}
	// What the parent commit's own serial resume of this file reports.
	want := core.Counters{Executions: 51, FailurePoints: 17, ReadFromPoints: 33, Steps: 6743,
		Pruned: 25, PrefixForks: 38, StepsSaved: 4752, RaceReports: 25}
	if res.Counters != want || !res.Resumed || !res.Complete || len(res.Bugs) != 8 {
		t.Fatalf("resumed to %+v (resumed=%v complete=%v, %d bugs), want %+v and 8 bugs",
			res.Counters, res.Resumed, res.Complete, len(res.Bugs), want)
	}
	// And an uninterrupted run agrees on everything the contract on
	// core.Stats calls invariant.
	full, err := core.Run(spineConfig(), spineProgram)
	if err != nil {
		t.Fatal(err)
	}
	inv := func(c core.Counters) core.Counters { c.PrefixForks, c.StepsSaved = 0, 0; return c }
	if inv(full.Counters) != inv(res.Counters) || !reflect.DeepEqual(bugSet(full.Bugs), bugSet(res.Bugs)) {
		t.Fatalf("resumed %+v %v\n   full %+v %v", res.Counters, bugSet(res.Bugs), full.Counters, bugSet(full.Bugs))
	}
}

// TestMetricsEqualStats: the scraped counters are published from the same
// deltas the engine folds into its total, so after a complete run they
// equal Result.Stats exactly — serial, parallel, and when most of the
// total was inherited from a checkpoint.
func TestMetricsEqualStats(t *testing.T) {
	check := func(t *testing.T, reg *obs.Registry, res *core.Result) {
		t.Helper()
		if !res.Complete || res.Pruned == 0 || res.RaceReports == 0 || res.StepsSaved == 0 || len(res.Bugs) == 0 {
			t.Fatalf("run does not exercise every series: %+v", res.Stats)
		}
		snap := reg.Snapshot()
		for name, want := range map[string]int64{
			"cxlmc_executions_total":         int64(res.Executions),
			"cxlmc_steps_total":              res.Steps,
			"cxlmc_pruned_total":             res.Pruned,
			"cxlmc_prefix_forks_total":       res.PrefixForks,
			"cxlmc_prefix_steps_saved_total": res.StepsSaved,
			"cxlmc_races_total":              res.RaceReports,
			"cxlmc_bugs_total":               int64(len(res.Bugs)),
		} {
			if got := int64(snap[name]); got != want {
				t.Errorf("%s = %d, Stats says %d", name, got, want)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		cfg := spineConfig()
		cfg.Workers = workers
		cfg.Obs = obs.NewRegistry()
		res, err := core.Run(cfg, spineProgram)
		if err != nil {
			t.Fatal(err)
		}
		check(t, cfg.Obs, res)
	}

	cfg := spineConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "mid.ck")
	cfg.MaxExecutions = 20
	if mid, err := core.Run(cfg, spineProgram); err != nil || mid.Complete {
		t.Fatalf("first leg: %v, complete=%v", err, mid.Complete)
	}
	cfg.MaxExecutions = 0
	cfg.Obs = obs.NewRegistry()
	res, err := core.Run(cfg, spineProgram)
	if err != nil || !res.Resumed {
		t.Fatalf("second leg: %v, resumed=%v", err, res.Resumed)
	}
	check(t, cfg.Obs, res)
}

// invariant drops the two counters the contract on core.Stats calls
// schedule-dependent: a run that adopts a unit starts without a prefix log.
func invariant(c core.Counters) core.Counters { c.PrefixForks, c.StepsSaved = 0, 0; return c }

// TestContinueRoundTrip: Continue is the checkpoint round trip without the
// file. Chained calls that each stop after seven more executions and hand
// their checkpoint to the next reach the uninterrupted run's counters —
// decision points included — and bug set, serial and parallel; and at one cut
// the checkpoint Continue returns and the file Run writes are the same
// frontier, each finishing under the other.
func TestContinueRoundTrip(t *testing.T) {
	full, err := core.Run(spineConfig(), spineProgram)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFull := func(t *testing.T, what string, res *core.Result) {
		t.Helper()
		if !res.Complete || invariant(res.Counters) != invariant(full.Counters) ||
			!reflect.DeepEqual(bugSet(res.Bugs), bugSet(full.Bugs)) {
			t.Fatalf("%s: complete=%v %+v %v\n  uninterrupted: %+v %v",
				what, res.Complete, res.Counters, bugSet(res.Bugs), full.Counters, bugSet(full.Bugs))
		}
	}
	for _, workers := range []int{1, 4} {
		cfg := spineConfig()
		cfg.Workers = workers
		var cp *core.Checkpoint
		for calls := 1; ; calls++ {
			cfg.MaxExecutions += 7 // the budget is cumulative, like the count
			next, res, err := core.Continue(cfg, spineProgram, cp)
			if err != nil {
				t.Fatalf("workers=%d call %d: %v", workers, calls, err)
			}
			if res.Resumed != (cp != nil) {
				t.Fatalf("workers=%d call %d: Resumed=%v", workers, calls, res.Resumed)
			}
			cp = next
			tally, _ := cp.Totals()
			if res.Complete {
				sameAsFull(t, "chained Continue", res)
				if !cp.Complete || len(cp.Units) != 0 || tally.Counters != res.Counters {
					t.Fatalf("workers=%d: final checkpoint complete=%v, %d units, totals %+v; result %+v",
						workers, cp.Complete, len(cp.Units), tally.Counters, res.Counters)
				}
				break
			}
			if res.Executions != cfg.MaxExecutions || tally.Executions != res.Executions || len(cp.Units) == 0 {
				t.Fatalf("workers=%d call %d: stopped at %d executions (budget %d), checkpoint has %d and %d units",
					workers, calls, res.Executions, cfg.MaxExecutions, tally.Executions, len(cp.Units))
			}
			if calls > full.Executions {
				t.Fatalf("workers=%d: still incomplete after %d calls", workers, calls)
			}
		}
	}

	cfg := spineConfig()
	cfg.MaxExecutions = 20
	mem, _, err := core.Continue(cfg, spineProgram, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "disk.ck")
	if _, err := core.Run(cfg, spineProgram); err != nil {
		t.Fatal(err)
	}
	disk, err := core.LoadCheckpoint(cfg.CheckpointPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	memT, _ := mem.Totals()
	diskT, _ := disk.Totals()
	if !reflect.DeepEqual(mem.Units, disk.Units) || memT.Counters != diskT.Counters ||
		!reflect.DeepEqual(bugSet(memT.Bugs), bugSet(diskT.Bugs)) {
		t.Fatalf("same cut, different checkpoints:\n memory %+v %d units\n   disk %+v %d units",
			memT.Counters, len(mem.Units), diskT.Counters, len(disk.Units))
	}
	_, fromDisk, err := core.Continue(spineConfig(), spineProgram, disk)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFull(t, "Run's file continued in memory", fromDisk)
	cfg = spineConfig()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "mem.ck")
	if err := core.WriteCheckpoint(cfg.CheckpointPath, mem, nil); err != nil {
		t.Fatal(err)
	}
	fromMem, err := core.Run(cfg, spineProgram)
	if err != nil {
		t.Fatal(err)
	}
	sameAsFull(t, "Continue's checkpoint resumed from a file", fromMem)
}
