package bench

import (
	_ "embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cxlmc "repro"
	"repro/internal/core"
	"repro/internal/cxlshm"
	"repro/internal/decision"
	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/recipe"
	"repro/internal/sched"
)

// Probes is the name the micro-probe child reports under.
const Probes = "probes"

//go:embed testdata/loop.go
var loopSource []byte

//go:embed testdata/loop_events.go
var loopEventsSource []byte

// Iteration counts written into the testdata sources.
const (
	loopIterations       = 100000
	loopEventsIterations = 10000
	loopEventsCells      = 1024
)

// RunProbes measures the layers no workload isolates: micro-probes of
// sched, decision, memmodel, the frontier and the metrics registry, the
// on/off ratios of reduction, checkpointing and observability on the
// Table 5 CCEH row, the interpreter's per-iteration and per-event cost,
// and the bug hunts. Each micro-probe loops for at least spec.Reps × 20
// ms; each whole-run comparison is repeated spec.Reps times.
func RunProbes(spec ChildSpec, pins *Pins) (*ChildResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(spec.Procs))
	res := &ChildResult{Workload: Probes, Ledger: map[string]float64{}}
	e := &env{seed: spec.Seed, root: spec.Root, dir: spec.Dir, pins: pins}
	l := res.Ledger
	min := time.Duration(spec.Reps) * 20 * time.Millisecond

	probeSched(l, min)
	probeDecision(l, min)
	probeMemmodel(l, min)
	probeFrontier(l, spec.Reps)
	c := obs.NewRegistry().Counter("cxlbench_probe_total", "probe")
	l["obs.counter_inc_ns"] = perOp(min, func(int) { c.Inc() })
	for _, probe := range []func(*env, map[string]float64, int) error{probeCCEH, probeGofront, probeHunts} {
		res.Attempted++
		if err := probe(e, l, spec.Reps); err != nil {
			res.Failed++
			res.Failures = append(res.Failures, err.Error())
		}
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// perOp calls f in batches, each four times the last, until one batch
// runs for at least min, and returns that batch's nanoseconds per call.
// f gets the call's index within its batch.
func perOp(min time.Duration, f func(i int)) float64 {
	for n := 256; ; n *= 4 {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		if d := time.Since(start); d >= min {
			return float64(d) / float64(n)
		}
	}
}

// handoffNS is one Grant→Pause round trip: the scheduler hands the baton
// to a simulated thread and gets it back, which is what every simulated
// step that is not fast-replayed costs before it does anything.
func handoffNS(min time.Duration) float64 {
	s, spin := spinner()
	defer s.Teardown()
	return perOp(min, func(int) { s.Grant(spin) })
}

// spinner returns a scheduler with one started thread that yields
// forever.
func spinner() (*sched.Scheduler, *sched.Thread) {
	s := sched.New()
	spin := s.NewThread(0, "spin", func(t *sched.Thread) {
		for {
			t.Pause()
		}
	})
	s.Grant(spin) // start the goroutine outside the timed loops
	return s, spin
}

func probeSched(l map[string]float64, min time.Duration) {
	l["sched.handoff_ns"] = handoffNS(min)
	s, spin := spinner()
	l["sched.handoff_timeout_ns"] = perOp(min, func(int) { s.GrantTimeout(spin, time.Minute) })
	s.Teardown()

	// One execution's thread lifecycle in the Table 5 shape: four
	// threads on two machines, each run to its first yield, unwound, and
	// the scheduler recycled.
	s = sched.New()
	l["sched.spawn_teardown_ns"] = perOp(min, func(int) {
		for j := 0; j < 4; j++ {
			s.Grant(s.NewThread(j/2, "t", func(t *sched.Thread) { t.Pause() }))
		}
		s.Teardown()
		s.Reset()
	})
}

const probeDepth = 12

// descend resolves probeDepth binary decision points: one execution.
func descend(t *decision.Tree) {
	t.Begin()
	for d := 0; d < probeDepth; d++ {
		t.Choose(decision.KindReadFrom, 2)
	}
}

func probeDecision(l map[string]float64, min time.Duration) {
	// A full binary tree of depth 12 enumerated to Done: 4096 leaves.
	l["decision.choose_advance_ns"] = perOp(min, func(int) {
		t := decision.NewTree()
		for descend(t); t.Advance(); descend(t) {
		}
	}) / (4096 * probeDepth)

	// Split and Snapshot/Restore between the first and the second
	// execution, when every level still has its second branch pending.
	// Split consumes its tree, so each call builds one and the build
	// alone is timed too and subtracted.
	pending := func() *decision.Tree {
		t := decision.NewTree()
		descend(t)
		t.Advance()
		return t
	}
	build := perOp(min, func(int) { pending() })
	l["decision.split_ns"] = perOp(min, func(int) { pending().Split() }) - build
	src, dst := pending(), decision.NewTree()
	l["decision.snapshot_restore_ns"] = perOp(min, func(int) {
		if err := dst.Restore(src.Snapshot()); err != nil {
			panic(err) // a snapshot the tree just took must restore
		}
	})
}

const probeAddr memmodel.Addr = 64

// buildLine resets m and commits stores 8-byte stores to one address,
// round-robin from the writers' store buffers.
func buildLine(m *memmodel.Memory, writers []*memmodel.ThreadBuf, stores int) {
	m.Reset()
	for i := 0; i < stores; i++ {
		w := i % len(writers)
		writers[w].ExecStore(probeAddr, 8, uint64(i+1))
		m.CommitStore(writers[w], memmodel.MachineID(w))
	}
}

// probeLoad prices one post-failure byte load on a line holding the
// given number of committed stores: the full lazy candidate enumeration
// (newest to the device-resident value) and the constraint refinement
// for the candidate taken. The last machine loads, machine 0 has
// failed, the others wrote. ApplyReadConstraint mutates the memory, so
// every iteration rebuilds the line; the rebuild alone is timed too and
// subtracted.
func probeLoad(min time.Duration, stores, machines int) float64 {
	m := memmodel.NewMemory()
	writers := make([]*memmodel.ThreadBuf, machines-1)
	for i := range writers {
		writers[i] = memmodel.NewThreadBuf()
	}
	failed := memmodel.FailSet(0).With(0)
	rc := memmodel.ReadContext{Mem: m, Curr: memmodel.MachineID(machines - 1)}
	var it memmodel.CandidateIter
	build := perOp(min, func(int) { buildLine(m, writers, stores) })
	full := perOp(min, func(int) {
		buildLine(m, writers, stores)
		rc.Failed = failed
		rc.CandidatesInto(&it, probeAddr)
		var last memmodel.Candidate
		for c, ok := it.Next(); ok; c, ok = it.Next() {
			last = c
		}
		rc.Failed = last.Fail
		rc.ApplyReadConstraint(probeAddr, last, last.Machine != memmodel.DeviceID && last.Fail.Has(last.Machine))
	})
	return full - build
}

func probeMemmodel(l map[string]float64, min time.Duration) {
	l["memmodel.load_ns.s1"] = probeLoad(min, 1, 2)
	l["memmodel.load_ns.s8"] = probeLoad(min, 8, 2)
	l["memmodel.load_ns.s64"] = probeLoad(min, 64, 2)
	l["memmodel.load_ns.m4"] = probeLoad(min, 8, 4)

	m := memmodel.NewMemory()
	tb := memmodel.NewThreadBuf()
	// Stores spread over four lines, the memory recycled every 64.
	l["memmodel.commit_store_ns"] = perOp(min, func(i int) {
		if i%64 == 0 {
			m.Reset()
		}
		tb.ExecStore(memmodel.Addr(64*(1+i%4)), 8, uint64(i))
		m.CommitStore(tb, 0)
	})
	// One clflush commit, then one clflushopt+sfence chain drained
	// through CommitFB, each after a store to the flushed line.
	l["memmodel.flush_ns"] = perOp(min, func(i int) {
		if i%64 == 0 {
			m.Reset()
			tb.Reset()
		}
		a := memmodel.Addr(64 * (1 + i%4))
		tb.ExecStore(a, 8, uint64(i))
		m.CommitStore(tb, 0)
		tb.ExecClflush(a)
		m.CommitClflush(tb, 0)
		tb.ExecStore(a, 8, uint64(i))
		m.CommitStore(tb, 0)
		tb.ExecClflushopt(a, m.Seq())
		tb.ExecSfence()
		m.CommitClflushopt(tb)
		m.CommitSfence(tb)
		for len(tb.FB) > 0 {
			m.CommitFB(tb, 0)
		}
	})
	// Reset of a memory holding one line with 64 stores: buildLine
	// resets first, so building twice a call against once isolates it.
	writers := []*memmodel.ThreadBuf{tb}
	once := perOp(min, func(int) { buildLine(m, writers, 64) })
	l["memmodel.reset_ns"] = perOp(min, func(int) {
		buildLine(m, writers, 64)
		m.Reset()
	}) - once
}

func probeFrontier(l map[string]float64, reps int) {
	// Each call leases and completes one unit, so the loop is as long as
	// the frontier was seeded.
	units := make([][]byte, 20000*reps)
	unit := decision.NewTree().Snapshot()
	for i := range units {
		units[i] = unit
	}
	f := core.NewMemFrontier(core.MemFrontierConfig{}, units)
	defer f.Close()
	start := time.Now()
	for range units {
		u, _ := f.TryLease("probe")
		f.Complete(u, core.UnitReport{}) // MemFrontier.Complete cannot fail
	}
	l["core.frontier_lease_complete_ns"] = float64(time.Since(start)) / float64(len(units))
}

// probeCCEH prices the engine's switchable features on the Table 5 CCEH
// row, alternating the variants so drift hits them alike.
func probeCCEH(e *env, l map[string]float64, reps int) error {
	const key = "table5/CCEH"
	prog := recipe.Program(harness.Benchmarks[0], harness.Table5Config())
	bare, err := cliConfig(prog)
	if err != nil {
		return err
	}
	ckPath := filepath.Join(e.dir, "probe.ck")
	variants := []struct {
		name string
		cfg  func() cxlmc.Config
	}{
		{"bare", func() cxlmc.Config { return bare }},
		{"metrics", func() cxlmc.Config {
			cfg := bare
			cfg.Obs = cxlmc.NewMetricsRegistry()
			return cfg
		}},
		{"trace", func() cxlmc.Config {
			cfg := bare
			cfg.Obs, cfg.EventTrace = cxlmc.NewMetricsRegistry(), io.Discard
			return cfg
		}},
		{"checkpoint", func() cxlmc.Config {
			// A leftover file would make the run resume a finished
			// exploration instead of exploring.
			os.Remove(ckPath)
			cfg := bare
			cfg.CheckpointPath, cfg.CheckpointEvery = ckPath, 64
			return cfg
		}},
	}
	defer os.Remove(ckPath)
	secs := map[string][]float64{}
	for i := 0; i < 3*reps; i++ {
		for _, v := range variants {
			cfg := v.cfg()
			start := time.Now()
			if _, err := e.explore(nil, -1, cfg, prog, key); err != nil {
				return fmt.Errorf("CCEH %s: %w", v.name, err)
			}
			secs[v.name] = append(secs[v.name], time.Since(start).Seconds())
		}
	}
	base := median(secs["bare"])
	l["obs.metrics_overhead_ratio"] = median(secs["metrics"]) / base
	l["obs.trace_overhead_ratio"] = median(secs["trace"]) / base
	l["core.checkpoint_tax_ratio"] = median(secs["checkpoint"]) / base
	l["detail.probes.cceh_bare_s_p50"] = base

	// The same exploration with a second P for the runtime to wake on
	// every handoff: what pinning the serial workloads to one P hides. A
	// tight Grant→Pause loop does not show it (both Ps stay hot); a
	// whole exploration does.
	one, two, err := paired(3*reps,
		func() error { _, err := e.explore(nil, -1, bare, prog, key); return err },
		func() error {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			_, err := e.explore(nil, -1, bare, prog, key)
			return err
		})
	if err != nil {
		return fmt.Errorf("CCEH at GOMAXPROCS 1 and 2: %w", err)
	}
	l["sched.procs2_tax_ratio"] = two / one
	l["detail.probes.cceh_procs1_s_p50"] = one
	l["detail.probes.cceh_procs2_s_p50"] = two

	unreduced := bare
	unreduced.Reduction, unreduced.PrefixFork = cxlmc.SwitchOff, cxlmc.SwitchOff
	off, err := e.explore(nil, -1, unreduced, prog, "")
	if err != nil {
		return fmt.Errorf("CCEH unreduced: %w", err)
	}
	l["core.reduction_exec_ratio.CCEH"] = float64(off.Executions) / float64(e.pins.Verdicts[key].Executions)

	// Replaying the seeded bug's repro token: one execution with
	// tracing forced on.
	buggy := recipe.Program(harness.Benchmarks[0], recipe.Config{Keys: 10, Workers: 1, Bugs: 1})
	res, err := e.explore(nil, -1, ccehBugConfig, buggy, SourceCCEH)
	if err != nil {
		return err
	}
	if len(res.Bugs) == 0 {
		return fmt.Errorf("CCEH with bug #1 seeded found no bug to replay")
	}
	var replays []float64
	for i := 0; i < 3*reps; i++ {
		start := time.Now()
		rep, err := cxlmc.Replay(res.Bugs[0].ReproToken, ccehBugConfig, buggy)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if !rep.Buggy() {
			return fmt.Errorf("replay of %q found no bug", res.Bugs[0].Message)
		}
		replays = append(replays, ms(time.Since(start)))
	}
	l["core.replay_ms"] = median(replays)
	return nil
}

func probeGofront(e *env, l map[string]float64, reps int) error {
	cfg := cxlmc.Config{Workers: 1}
	loop, err := cxlmc.ProgramFromSource("testdata/loop.go", loopSource, "")
	if err != nil {
		return err
	}
	events, err := cxlmc.ProgramFromSource("testdata/loop_events.go", loopEventsSource, "")
	if err != nil {
		return err
	}
	run := func(prog func(*cxlmc.Program)) func() error {
		return func() error { _, err := e.explore(nil, -1, cfg, prog, ""); return err }
	}
	var loopS []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := run(loop)(); err != nil {
			return fmt.Errorf("testdata/loop.go: %w", err)
		}
		loopS = append(loopS, time.Since(start).Seconds())
	}
	eventsS, nativeS, err := paired(reps, run(events), run(nativeLoopEvents))
	if err != nil {
		return fmt.Errorf("testdata/loop_events.go and its native twin: %w", err)
	}
	l["gofront.ns_per_loop_iter"] = median(loopS) * 1e9 / loopIterations
	l["gofront.ns_per_event"] = (eventsS - nativeS) * 1e9 / (2 * loopEventsIterations)
	l["detail.probes.loop_events_s_p50"] = eventsS
	l["detail.probes.loop_events_native_s_p50"] = nativeS
	return nil
}

// nativeLoopEvents is testdata/loop_events.go against the Thread API.
func nativeLoopEvents(p *cxlmc.Program) {
	base := p.AllocAligned(loopEventsCells*8, 64)
	m := p.NewMachine("m0")
	m.Thread("spin", func(t *cxlmc.Thread) {
		var acc uint64
		for i := uint64(0); i < loopEventsIterations; i++ {
			a := base + cxlmc.Addr((i%loopEventsCells)*8)
			t.Store64(a, i)
			acc += t.Load64(a)
		}
		t.Store64(base, acc)
	})
}

// probeHunts times rounds of every bug hunt of Tables 3 and 4 — time to
// first bug, the checker's other product — serially, so the execution
// counts repeat exactly. Each hunt must find a bug of its pinned kind.
func probeHunts(e *env, l map[string]float64, reps int) error {
	var rounds, slowest []float64
	var execs int
	hunt := func(name string, run func() (*cxlmc.Result, error), slow *float64) error {
		start := time.Now()
		res, err := run()
		if err != nil {
			return fmt.Errorf("hunt %s: %w", name, err)
		}
		if !res.Buggy() {
			return fmt.Errorf("hunt %s: %s", name, harness.HuntDiagnosis(res))
		}
		if d := ms(time.Since(start)); d > *slow {
			*slow = d
		}
		execs += res.Executions
		return e.pins.CheckHunt(name, res.Bugs[0].Kind.String())
	}
	cfg := cxlmc.Config{Workers: 1}
	for r := 0; r < (reps+1)/2; r++ {
		execs = 0
		var slow float64
		start := time.Now()
		for _, b := range harness.Benchmarks {
			for _, bi := range b.Bugs {
				b, bi := b, bi
				if err := hunt(fmt.Sprintf("%s#%d", b.Name, bi.Table), func() (*cxlmc.Result, error) {
					return harness.BugHunt(b, bi, cfg)
				}, &slow); err != nil {
					return err
				}
			}
		}
		for _, c := range cxlshm.Cases {
			c := c
			if err := hunt(c.Name, func() (*cxlmc.Result, error) {
				hc := cfg
				hc.MaxExecutions = harness.DefaultMaxExecutions
				return cxlmc.Run(hc, c.Program(c.Bit))
			}, &slow); err != nil {
				return err
			}
		}
		rounds = append(rounds, time.Since(start).Seconds())
		slowest = append(slowest, slow)
	}
	l["harness.hunt_round_s"] = median(rounds)
	l["harness.hunt_slowest_ms"] = median(slowest)
	l["harness.hunt_execs"] = float64(execs)
	return nil
}
