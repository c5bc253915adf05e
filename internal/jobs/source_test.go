package jobs

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cxlmc "repro"
)

// slowSource is an inline source program tuned for the crash-restart
// test: the spin loops make every interpreted execution take real wall
// time, and the unflushed data stores give the exploration a
// deterministic bug set to compare across the crash.
const slowSource = `package main

import "cxl"

func spin(n int) uint64 {
	acc := uint64(0)
	for i := 0; i < n; i++ {
		acc += uint64(i) * 0x9E3779B97F4A7C15
	}
	return acc
}

func Program(r *cxl.Region) {
	var data, flag []cxl.Ptr
	for i := 0; i < 2; i++ {
		data = append(data, r.AllocAligned(8, 64))
		flag = append(flag, r.AllocAligned(8, 64))
	}
	m0 := r.NewMachine("m0")
	m1 := r.NewMachine("m1")
	var ts []*cxl.Thread
	for i, m := range []*cxl.Machine{m0, m1} {
		id := i
		ts = append(ts, m.Spawn("w", func() {
			for round := uint64(1); round <= 4; round++ {
				spin(5000)
				// Publish without flushing the payload: lost when this
				// machine fails after the round's flag persists.
				cxl.Store64(data[id], 42+round)
				cxl.Store64(flag[id], round)
				cxl.Flush(flag[id])
				cxl.Fence()
			}
		}))
	}
	m0.Spawn("check", func() {
		cxl.JoinAll(ts...)
		for i := 0; i < 2; i++ {
			round := cxl.Load64(flag[i])
			if round != 0 {
				v := cxl.Load64(data[i])
				cxl.Assert(v == 42+round, "machine %d published round %d but data is %d", i, round, v)
			}
		}
	})
}
`

// sourceControl runs spec's source program straight through the engine
// with the effective config the server builds, as the parity baseline,
// its op stream going to observer (which may be nil).
func sourceControl(t *testing.T, sp Spec, observer cxlmc.OpObserver) *cxlmc.Result {
	t.Helper()
	program, err := cxlmc.ProgramFromSource(sp.SourceName, []byte(sp.Source), sp.Entry)
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	res, err := cxlmc.Run(cxlmc.Config{
		Seed: sp.Seed, Workers: 1, ContinueAfterBug: sp.ContinueAfterBug,
		Reduction: sp.Reduction, Observer: observer,
	}, program)
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	return res
}

// TestSourceJobEndToEnd submits the real examples/src CCEH file as an
// inline source job and requires the same bug set and execution count a
// direct engine run of the same source finds, with the job attributed
// to its tenant.
func TestSourceJobEndToEnd(t *testing.T) {
	srcBytes, err := os.ReadFile(filepath.Join("..", "..", "examples", "src", "cceh.go"))
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{
		Tenant: "alice", Source: string(srcBytes), SourceName: "cceh.go",
		Entry: "Program", Seed: 1, ContinueAfterBug: true,
	}
	control := sourceControl(t, sp, nil)
	if len(control.Bugs) == 0 {
		t.Fatal("control found no bugs; the seeded CCEH bug should surface")
	}

	s := testServer(t, Config{})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 60*time.Second)
	st, err := c.Submit(ctx, sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Tenant != "alice" {
		t.Errorf("tenant = %q, want alice", fin.Tenant)
	}
	if fin.Spec == nil || fin.Spec.SourceName != "cceh.go" || fin.Spec.Entry != "Program" {
		t.Errorf("reported spec lost the source identity: %+v", fin.Spec)
	}
	got, want := bugSet(fin.Result.Bugs), bugSet(control.Bugs)
	if !equalSets(got, want) {
		t.Errorf("bug set diverged from control\n got: %v\nwant: %v", got, want)
	}
	if fin.Result.Executions != control.Executions {
		t.Errorf("executions %d, control %d", fin.Result.Executions, control.Executions)
	}
}

// TestSourceSpecValidation: bad source programs are 400s at submit
// time with positioned diagnostics — they never queue.
func TestSourceSpecValidation(t *testing.T) {
	s := testServer(t, Config{})
	c := NewClient(s.Addr())
	ctx := ctxT(t, 30*time.Second)

	cases := []struct {
		name string
		sp   Spec
		want string
	}{
		{
			name: "source and bench",
			sp:   Spec{Bench: "CCEH", Source: slowSource},
			want: "exactly one program",
		},
		{
			name: "entry without source",
			sp:   Spec{Bench: "CCEH", Entry: "Program"},
			want: "set source",
		},
		{
			name: "over the size cap",
			sp:   Spec{Source: "package main\n" + strings.Repeat("// pad\n", MaxSourceBytes/7)},
			want: "the cap is",
		},
		{
			name: "unsupported construct",
			sp:   Spec{Source: "package main\n\nimport \"cxl\"\n\nfunc Program(r *cxl.Region) {\n\tgo func() {}()\n}\n"},
			want: "job.go:6:2: go statements are unsupported",
		},
		{
			name: "missing entry",
			sp:   Spec{Source: "package main\n\nimport \"cxl\"\n\nfunc Setup(r *cxl.Region) { _ = r }\n", Entry: "Program"},
			want: `no function "Program"`,
		},
		{
			name: "path in source_name",
			sp:   Spec{Source: slowSource, SourceName: "../escape.go"},
			want: "bad source_name",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Submit(ctx, tc.sp)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Submit = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// parkAt is an op observer that counts the events it sees and, at the at-th,
// parks the run until release is closed, after closing parked. With at 0 it
// only counts.
type parkAt struct {
	n               atomic.Int64
	at              int64
	parked, release chan struct{}
}

func (p *parkAt) Op(cxlmc.OpEvent) {
	if p.n.Add(1) == p.at {
		close(p.parked)
		<-p.release
	}
}

// TestSourceJobRestartParity is the source half of the kill -9
// contract: crash the server while a source job is mid-run, restart on
// the same directory, and require the journal to have round-tripped the
// inline program — the job completes with the control's bug set and
// execution count.
//
// The crash point is fixed in the op stream, not found by polling: the
// first server's run parks at the middle event of the control's serial
// stream and goes on only once the crash has asked it to stop, so it stops
// at the end of that execution, however the goroutines are scheduled.
func TestSourceJobRestartParity(t *testing.T) {
	dir := t.TempDir()
	sp := Spec{
		Tenant: "alice", Source: slowSource, SourceName: "slow.go",
		Entry: "Program", Seed: 1, ContinueAfterBug: true, Reduction: cxlmc.SwitchOff,
	}
	count := &parkAt{}
	control := sourceControl(t, sp, count)
	if len(control.Bugs) == 0 {
		t.Fatal("control found no bugs; the unflushed publish should surface under crashes")
	}
	gate := &parkAt{at: count.n.Load() / 2, parked: make(chan struct{}), release: make(chan struct{})}

	cfg := Config{
		Addr: "127.0.0.1:0", Dir: dir, PoolWorkers: 1,
		Base: cxlmc.Config{
			CheckpointEvery: 10, CheckpointInterval: 20 * time.Millisecond,
			Observer: gate,
		},
	}
	s1, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewClient(s1.Addr())
	ctx := ctxT(t, 120*time.Second)
	st, err := c1.Submit(ctx, sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	select {
	case <-gate.parked:
	case <-time.After(60 * time.Second):
		t.Fatalf("the job never reached op event %d of the control's %d", gate.at, count.n.Load())
	}
	s1.mu.Lock()
	j := s1.jobs[st.ID]
	s1.mu.Unlock()
	j.mu.Lock()
	stop := j.stop
	j.mu.Unlock()
	go func() {
		<-stop
		close(gate.release)
	}()
	s1.crash()
	if s1.Registry().Snapshot()["cxlmc_jobs_done"] != 0 {
		t.Fatal("job completed before the crash; the crash proves nothing")
	}
	j.mu.Lock()
	p := j.progress
	j.mu.Unlock()
	if p == nil || p.Executions == 0 || p.Executions >= control.Executions {
		t.Fatalf("the crashed run's last progress is %+v; want some of the control's %d executions, not all", p, control.Executions)
	}

	s2, err := Start(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Close()
	fin, err := NewClient(s2.Addr()).Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("state = %s (%s), want done", fin.State, fin.Error)
	}
	got, want := bugSet(fin.Result.Bugs), bugSet(control.Bugs)
	if !equalSets(got, want) {
		t.Errorf("bug set diverged after crash+restart\n got: %v\nwant: %v", got, want)
	}
	if fin.Result.Executions != control.Executions {
		t.Errorf("executions %d after restart, control %d", fin.Result.Executions, control.Executions)
	}
	if !fin.Result.Complete {
		t.Error("result not complete")
	}
}
