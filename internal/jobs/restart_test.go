package jobs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	cxlmc "repro"
	"repro/internal/recipe"

	"repro/internal/harness"
)

// bugSet reduces a result's bugs to a sorted, comparable fingerprint.
func bugSet(bugs []cxlmc.Bug) []string {
	out := make([]string, len(bugs))
	for i, b := range bugs {
		out[i] = fmt.Sprintf("%s|%s|%s|%s", b.Kind, b.Message, b.Machine, b.Thread)
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRestartParity is the PR's acceptance criterion: kill the server
// dead (the in-process equivalent of kill -9: journaling stops
// mid-transition, running engines are abandoned with only their periodic
// checkpoints on disk) while two jobs are mid-run and a third is still
// queued, restart on the same directory, and require that every job
// completes with a bug set and execution count identical to an
// uninterrupted control run — no job lost, none duplicated, none
// double-counted in the cxlmc_jobs_* metrics.
func TestRestartParity(t *testing.T) {
	dir := t.TempDir()

	// Two deliberately slow jobs (reduction off blows the P-BwTree space
	// up to ~4.8k executions) and one fast one that stays queued behind
	// them on a two-worker pool.
	slowA := Spec{
		Tenant: "alice", Bench: "P-BwTree", Keys: 10, InsertWorkers: 2,
		Bugs: 1, Seed: 1, ContinueAfterBug: true, Reduction: cxlmc.SwitchOff,
	}
	slowB := slowA
	slowB.Tenant = "bob"
	slowB.Seed = 2
	fast := fastSpec("carol")
	specs := []Spec{slowA, slowB, fast}

	// Uninterrupted controls, straight through the engine with the same
	// effective config the server builds (the server's base contributes
	// Workers=1 and checkpoint plumbing; neither changes exploration).
	controls := make([]*cxlmc.Result, len(specs))
	for i, sp := range specs {
		program, ok := harness.ProgramByName(sp.Bench, recipe.Config{
			Keys: sp.Keys, Workers: sp.InsertWorkers, Stride: sp.Stride, Bugs: recipe.Bug(sp.Bugs),
		})
		if !ok {
			t.Fatalf("control %d: unknown bench", i)
		}
		res, err := cxlmc.Run(cxlmc.Config{
			Seed: sp.Seed, Workers: 1, ContinueAfterBug: sp.ContinueAfterBug,
			Reduction: sp.Reduction,
		}, program)
		if err != nil {
			t.Fatalf("control %d: %v", i, err)
		}
		controls[i] = res
	}

	// Phase 1: submit all three, wait for two running with real progress
	// and one queued, then crash.
	cfg := Config{
		Addr: "127.0.0.1:0", Dir: dir, PoolWorkers: 2,
		RetryBase: 5 * time.Millisecond,
		Base: cxlmc.Config{
			CheckpointEvery: 25, CheckpointInterval: 50 * time.Millisecond,
			ProgressEvery: 10 * time.Millisecond,
		},
	}
	s1, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	c1 := NewClient(s1.Addr())
	ctx := ctxT(t, 120*time.Second)
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := c1.Submit(ctx, sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("never reached 2 running with progress + 1 queued; jobs too fast or stuck")
		}
		a, err := c1.Status(ctx, ids[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := c1.Status(ctx, ids[1])
		if err != nil {
			t.Fatal(err)
		}
		q, err := c1.Status(ctx, ids[2])
		if err != nil {
			t.Fatal(err)
		}
		midRun := func(st Status) bool {
			return st.State == StateRunning && st.Progress != nil && st.Progress.Executions >= 100
		}
		if midRun(a) && midRun(b) && q.State == StateQueued {
			break
		}
		if a.State.Terminal() || b.State.Terminal() {
			t.Fatalf("slow job finished before the crash (a=%s b=%s); enlarge the workload", a.State, b.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.crash()
	if s1.Registry().Snapshot()["cxlmc_jobs_done"] != 0 {
		t.Fatal("a job completed before the crash; the crash proves nothing")
	}

	// Phase 2: restart on the same directory and let everything finish.
	s2, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	c2 := NewClient(s2.Addr())

	list, err := c2.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(specs) {
		t.Fatalf("recovered %d jobs, want %d (lost or duplicated)", len(list), len(specs))
	}
	seen := map[string]bool{}
	for _, st := range list {
		if seen[st.ID] {
			t.Fatalf("job %s recovered twice", st.ID)
		}
		seen[st.ID] = true
	}

	for i, id := range ids {
		fin, err := c2.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if fin.State != StateDone {
			t.Fatalf("%s: state %s (%s), want done", id, fin.State, fin.Error)
		}
		if fin.Result == nil {
			t.Fatalf("%s: done without result", id)
		}
		got, want := bugSet(fin.Result.Bugs), bugSet(controls[i].Bugs)
		if !equalSets(got, want) {
			t.Errorf("%s: bug set diverged after crash+restart\n got: %v\nwant: %v", id, got, want)
		}
		if fin.Result.Executions != controls[i].Executions {
			t.Errorf("%s: executions %d after restart, control %d", id, fin.Result.Executions, controls[i].Executions)
		}
		if !fin.Result.Complete {
			t.Errorf("%s: result not complete", id)
		}
	}

	// Accounting: the two mid-run jobs were adopted from their
	// checkpoints, and every terminal transition happened exactly once —
	// all three in the second process.
	snap := s2.Registry().Snapshot()
	if snap["cxlmc_jobs_resumed"] != 2 {
		t.Errorf("resumed = %v, want 2 (the two mid-run jobs)", snap["cxlmc_jobs_resumed"])
	}
	if snap["cxlmc_jobs_done"] != 3 {
		t.Errorf("done = %v, want 3 (each job counted once)", snap["cxlmc_jobs_done"])
	}
	if snap["cxlmc_jobs_failed"] != 0 || snap["cxlmc_jobs_cancelled"] != 0 {
		t.Errorf("failed=%v cancelled=%v, want 0/0", snap["cxlmc_jobs_failed"], snap["cxlmc_jobs_cancelled"])
	}
}

// TestCrashBeforeFirstCheckpoint crashes the server while a job is
// running and then deletes its checkpoint file, simulating a SIGKILL
// that landed before the first periodic checkpoint (the in-process
// crash hook cannot stop the engine's final stop-checkpoint, so the
// test removes it). The restart must run the job from scratch to the
// same result — absence of a checkpoint means "start over", never
// "fail".
func TestCrashBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Addr: "127.0.0.1:0", Dir: dir, PoolWorkers: 1,
		// A checkpoint cadence the short run will never reach.
		Base: cxlmc.Config{
			CheckpointEvery: 1 << 20, CheckpointInterval: time.Hour,
			ProgressEvery: 5 * time.Millisecond,
		},
	}
	s1, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewClient(s1.Addr())
	ctx := ctxT(t, 60*time.Second)
	sp := Spec{
		Tenant: "a", Bench: "P-BwTree", Keys: 10, InsertWorkers: 2,
		Bugs: 1, Seed: 1, ContinueAfterBug: true, Reduction: cxlmc.SwitchOff,
	}
	st, err := c1.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	for {
		cur, err := c1.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s1.crash()
	os.Remove(filepath.Join(dir, st.ID+".ckpt"))

	s2, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fin, err := NewClient(s2.Addr()).Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Result == nil || len(fin.Result.Bugs) == 0 {
		t.Fatalf("state=%s result=%+v, want done with bugs", fin.State, fin.Result)
	}
}
