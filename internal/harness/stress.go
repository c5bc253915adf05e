package harness

// Self-fuzzing stress harness: Build, which turns a program progir
// generates into one over the public cxlmc.Thread API, plus a swarm
// runner that checks the checker's own invariants on every generated
// program —
//
//   - Run never panics and never returns an error on a well-formed
//     program (bugs are reports, not failures);
//   - serial and parallel exploration agree on executions, decision
//     points and the distinct-bug set (worker-count invariance);
//   - every repro token replays and reproduces its bug;
//   - state-space reduction and prefix-fork replay change the execution
//     count but never the bug set (reduction soundness, fuzzed on every
//     seed with the knobs on vs off);
//   - interrupting a run and resuming it under fault injection converges
//     to exactly the uninterrupted exploration (with reduction on and
//     off).
//
// The generator is exposed to native `go test -fuzz` via
// FuzzRandomProgram in stress_test.go and to the CLI via `cxlmc -stress`.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	cxlmc "repro"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/progir"
)

// GenConfig is progir's: bench/ names it here.
type GenConfig = progir.GenConfig

// Generate builds the checker program of the random program progir
// generates for seed. The returned setup function is safe to pass to
// cxlmc.Run any number of times.
func Generate(seed int64, gc GenConfig) func(*cxlmc.Program) {
	return Build(progir.Generate(seed, gc))
}

// Build turns a generated program into the checker's: each cell 8 bytes,
// on its own cache line or on the line Lines gives it, the mutex if a
// Critical needs it, a machine per IR machine, and an observer machine that
// joins them all, asserts the pattern and loads the cells Observe lists.
// Called once per explored execution, the setup rebuilds the identical
// program every time, as Run requires.
func Build(ir *progir.Program) func(*cxlmc.Program) {
	return func(p *cxlmc.Program) {
		cells := make([]cxlmc.Addr, ir.Cells)
		free := map[int]cxlmc.Addr{} // each line's next free word
		for i := range cells {
			a, ok := free[ir.Line(i)]
			switch {
			case ir.Lines == nil:
				a = p.AllocAligned(8, 64) // as Generate's programs have always had it
			case !ok:
				a = p.AllocAligned(64, 64)
			}
			cells[i], free[ir.Line(i)] = a, a+8
		}
		var mu *cxlmc.Mutex
		if ir.Mutex {
			mu = p.NewMutex("stress")
		}

		workers := make([]*cxlmc.Machine, len(ir.Machines))
		for m, threads := range ir.Machines {
			workers[m] = p.NewMachine(fmt.Sprintf("m%d", m))
			for t, ops := range threads {
				workers[m].Thread(fmt.Sprintf("t%d", t), func(th *cxlmc.Thread) {
					for _, op := range ops {
						execOp(th, mu, cells, workers, op)
					}
				})
			}
		}

		obs := p.NewMachine("observer")
		obs.Thread("check", func(th *cxlmc.Thread) {
			for _, w := range workers {
				th.Join(w)
			}
			if ir.Pattern && th.Load64(cells[1]) == 1 {
				th.Assert(th.Load64(cells[0]) == 42, "pattern: flag set but data lost")
			}
			for _, c := range ir.Observed() {
				th.Load64(cells[c])
			}
		})
	}
}

func execOp(th *cxlmc.Thread, mu *cxlmc.Mutex, cells []cxlmc.Addr, workers []*cxlmc.Machine, op progir.Op) {
	a := cells[op.Cell]
	switch op.Code {
	case progir.Store:
		switch op.Size {
		case 1:
			th.Store8(a, uint8(op.Val))
		case 2:
			th.Store16(a, uint16(op.Val))
		case 4:
			th.Store32(a, uint32(op.Val))
		default:
			th.Store64(a, op.Val)
		}
	case progir.Load:
		switch op.Size {
		case 1:
			th.Load8(a)
		case 2:
			th.Load16(a)
		case 4:
			th.Load32(a)
		default:
			th.Load64(a)
		}
	case progir.Flush:
		th.CLFlush(a)
	case progir.FlushOpt:
		th.CLFlushOpt(a)
		th.SFence()
	case progir.SFence:
		th.SFence()
	case progir.MFence:
		th.MFence()
	case progir.CAS:
		th.CAS64(a, 0, op.Val)
	case progir.FetchAdd:
		th.FetchAdd64(a, op.Val)
	case progir.Yield:
		th.Yield()
	case progir.Critical:
		mu.Lock(th)
		for _, in := range op.Inner {
			execOp(th, mu, cells, workers, in)
		}
		mu.Unlock(th)
	case progir.Join:
		th.Join(workers[op.Machine])
	}
}

// Outcomes explores Build(ir) under cfg and returns the set of its
// outcomes, keyed as the oracle keys them: the values the observer loaded,
// in load order, as fmt.Sprint prints a []uint64. It takes cfg.Observer for
// the collection, which makes the run serial. Every execution must end
// with the observer's loads, so a pattern or a reported bug is an error.
func Outcomes(cfg cxlmc.Config, ir *progir.Program) (map[string]bool, *cxlmc.Result, error) {
	o := &outcomes{n: len(ir.Observed()), set: map[string]bool{}}
	cfg.Observer = o
	res, err := cxlmc.Run(cfg, Build(ir))
	if err == nil && (ir.Pattern || res.Buggy() || len(o.vals) != 0) {
		err = fmt.Errorf("harness: not every execution ended with the observer's loads (pattern %v, bugs %v)", ir.Pattern, res.Bugs)
	}
	return o.set, res, err
}

type outcomes struct {
	n    int
	vals []uint64
	set  map[string]bool
}

func (o *outcomes) Op(ev cxlmc.OpEvent) {
	if ev.Kind == core.OpLoaded && ev.MachineName == "observer" {
		if o.vals = append(o.vals, ev.Val); len(o.vals) == o.n {
			o.set[fmt.Sprint(o.vals)] = true
			o.vals = o.vals[:0]
		}
	}
}

// StressOptions configures one stress probe.
type StressOptions struct {
	Gen GenConfig
	// MaxExecutions caps each exploration; defaults to 30000. Programs
	// that hit the cap still check the no-panic and replay invariants,
	// but skip the count-parity ones (an incomplete frontier's counters
	// are order-dependent).
	MaxExecutions int
	// Chaos adds the interrupt-and-resume-under-fault-injection leg.
	Chaos bool
	// ChaosDir is where the chaos leg keeps its checkpoint; defaults to a
	// fresh os.MkdirTemp directory (removed afterwards).
	ChaosDir string
}

// StressResult is one seed's outcome.
type StressResult struct {
	Seed       int64
	Executions int
	Bugs       int
	Complete   bool
	// Violations lists checker-invariant breaches — each one is a bug in
	// cxlmc itself, not in the generated program. Empty means healthy.
	Violations []string
}

// StressOne generates the program for seed and checks every harness
// invariant against it. Panics escaping the checker are converted into
// violations, so a swarm survives to report them.
func StressOne(seed int64, opts StressOptions) (sr StressResult) {
	sr.Seed = seed
	defer func() {
		if v := recover(); v != nil {
			sr.Violations = append(sr.Violations, fmt.Sprintf("panic escaped the checker: %v", v))
		}
	}()
	if opts.MaxExecutions <= 0 {
		opts.MaxExecutions = 30000
	}
	prog := Generate(seed, opts.Gen)
	violatef := func(format string, args ...any) {
		sr.Violations = append(sr.Violations, fmt.Sprintf(format, args...))
	}

	serialCfg := cxlmc.Config{
		Workers:          1,
		ContinueAfterBug: true,
		MaxExecutions:    opts.MaxExecutions,
		MaxEventsPerExec: 1 << 16,
	}
	serial, err := cxlmc.Run(serialCfg, prog)
	if err != nil {
		violatef("serial run failed: %v", err)
		return sr
	}
	sr.Executions = serial.Executions
	sr.Bugs = len(serial.Bugs)
	sr.Complete = serial.Complete

	parallelCfg := serialCfg
	parallelCfg.Workers = 4
	// The parallel leg runs fully observed: metrics registry and event
	// tracing on (sunk to io.Discard), so the stress swarm continuously
	// proves instrumentation never perturbs the explored execution set.
	parallelCfg.Obs = cxlmc.NewMetricsRegistry()
	parallelCfg.EventTrace = io.Discard
	parallel, err := cxlmc.Run(parallelCfg, prog)
	if err != nil {
		violatef("parallel run failed: %v", err)
		return sr
	}
	if got := int64(parallelCfg.Obs.Snapshot()["cxlmc_executions_total"]); got != int64(parallel.Executions) {
		violatef("metrics disagree with stats: cxlmc_executions_total=%d vs Executions=%d",
			got, parallel.Executions)
	}
	if serial.Complete != parallel.Complete {
		violatef("completion disagrees: serial=%v parallel=%v", serial.Complete, parallel.Complete)
	}
	if serial.Executions != parallel.Executions {
		violatef("executions disagree: serial=%d parallel=%d", serial.Executions, parallel.Executions)
	}
	if serial.Complete && parallel.Complete {
		if serial.FailurePoints != parallel.FailurePoints ||
			serial.ReadFromPoints != parallel.ReadFromPoints ||
			serial.PoisonPoints != parallel.PoisonPoints {
			violatef("decision points disagree: serial=%d/%d/%d parallel=%d/%d/%d",
				serial.FailurePoints, serial.ReadFromPoints, serial.PoisonPoints,
				parallel.FailurePoints, parallel.ReadFromPoints, parallel.PoisonPoints)
		}
		if !sameBugSet(serial.Bugs, parallel.Bugs) {
			violatef("bug sets disagree: serial=%v parallel=%v",
				bugKeys(serial.Bugs), bugKeys(parallel.Bugs))
		}
	}

	for _, b := range serial.Bugs {
		if b.ReproToken == "" {
			continue // wedge reports carry no token by design
		}
		rep, err := cxlmc.Replay(b.ReproToken, serialCfg, prog)
		if err != nil {
			violatef("token for %q does not replay: %v", b.Message, err)
			continue
		}
		if !replayHas(rep, b) {
			violatef("token for %q replayed to %v", b.Message, bugKeys(rep.Bugs))
		}
	}

	// Reduction-soundness leg: the same seed explored with state-space
	// reduction and prefix-fork replay off must surface exactly the same
	// bug set. Pruning only ever removes executions, so the reduced run
	// completing while the exhaustive one hits the execution cap is
	// expected; the reverse is a checker bug.
	offCfg := serialCfg
	offCfg.Reduction = cxlmc.SwitchOff
	offCfg.PrefixFork = cxlmc.SwitchOff
	off, err := cxlmc.Run(offCfg, prog)
	if err != nil {
		violatef("reduction-off run failed: %v", err)
		return sr
	}
	if off.Complete && !serial.Complete {
		violatef("reduction-off completed in %d execs but the reduced run hit the cap at %d",
			off.Executions, serial.Executions)
	}
	if serial.Complete && off.Complete {
		if serial.Executions > off.Executions {
			violatef("reduction increased executions: on=%d off=%d", serial.Executions, off.Executions)
		}
		if !sameBugSet(serial.Bugs, off.Bugs) {
			violatef("reduction changed the bug set: on=%v off=%v",
				bugKeys(serial.Bugs), bugKeys(off.Bugs))
		}
	}
	for _, b := range off.Bugs {
		if b.ReproToken == "" {
			continue
		}
		rep, err := cxlmc.Replay(b.ReproToken, offCfg, prog)
		if err != nil {
			violatef("reduction-off token for %q does not replay: %v", b.Message, err)
			continue
		}
		if !replayHas(rep, b) {
			violatef("reduction-off token for %q replayed to %v", b.Message, bugKeys(rep.Bugs))
		}
	}

	if opts.Chaos && serial.Complete {
		sr.Violations = append(sr.Violations, stressChaosLeg(seed, opts, prog, serialCfg, serial)...)
		// The same interrupt-and-resume storm with reduction off: proves
		// checkpoint resume and pruning parity compose under fault
		// injection too.
		if off.Complete {
			for _, s := range stressChaosLeg(seed, opts, prog, offCfg, off) {
				sr.Violations = append(sr.Violations, "reduction-off "+s)
			}
		}
	}
	return sr
}

// stressChaosLeg interrupts the exploration mid-way, then resumes it
// repeatedly under I/O fault injection until it completes. Checkpoint
// counters are checkpoint-relative, so legs that lose progress to a
// failed write re-explore without double-counting: the converged totals
// must equal the uninterrupted serial run's.
func stressChaosLeg(seed int64, opts StressOptions, prog func(*cxlmc.Program), base cxlmc.Config, want *cxlmc.Result) []string {
	var v []string
	dir := opts.ChaosDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "cxlmc-stress")
		if err != nil {
			return []string{fmt.Sprintf("chaos leg: %v", err)}
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, fmt.Sprintf("stress-%d.ck", seed))
	defer os.Remove(path)
	defer os.Remove(path + ".corrupt")

	cut := want.Executions / 2
	if cut < 1 {
		return nil
	}
	leg := base
	leg.CheckpointPath = path
	leg.CheckpointEvery = 4
	leg.MaxExecutions = cut
	if _, err := cxlmc.Run(leg, prog); err != nil {
		return []string{fmt.Sprintf("chaos leg 1 failed: %v", err)}
	}

	// One injector across all resume legs: the fault budget persists, so
	// the storm provably ends and the loop terminates.
	inj := cxlmc.NewChaos(cxlmc.ChaosConfig{
		Seed:          seed,
		WriteErrPct:   40,
		ReadErrPct:    25,
		SyncErrPct:    25,
		RenameErrPct:  25,
		ShortWritePct: 50,
		MaxFaults:     40,
	})
	resume := base
	resume.CheckpointPath = path
	resume.CheckpointEvery = 4
	resume.MaxExecutions = opts.MaxExecutions
	resume.Chaos = inj
	for attempt := 0; attempt < 25; attempt++ {
		res, err := cxlmc.Run(resume, prog)
		if err != nil {
			if !chaos.IsInjected(err) {
				return append(v, fmt.Sprintf("chaos resume %d: non-injected failure: %v", attempt, err))
			}
			continue // the last installed checkpoint is still valid
		}
		if !res.Complete {
			continue
		}
		if res.Executions != want.Executions ||
			res.FailurePoints != want.FailurePoints ||
			res.ReadFromPoints != want.ReadFromPoints ||
			!sameBugSet(res.Bugs, want.Bugs) {
			v = append(v, fmt.Sprintf(
				"chaos-resumed exploration diverged: got %d execs %d/%d points bugs=%v, want %d execs %d/%d points bugs=%v",
				res.Executions, res.FailurePoints, res.ReadFromPoints, bugKeys(res.Bugs),
				want.Executions, want.FailurePoints, want.ReadFromPoints, bugKeys(want.Bugs)))
		}
		return v
	}
	return append(v, "chaos-resumed exploration never completed within the fault budget")
}

func bugKeys(bugs []cxlmc.Bug) []string {
	keys := make([]string, len(bugs))
	for i, b := range bugs {
		keys[i] = b.Kind.String() + ":" + b.Message
	}
	return keys
}

func sameBugSet(a, b []cxlmc.Bug) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]int, len(a))
	for _, k := range bugKeys(a) {
		set[k]++
	}
	for _, k := range bugKeys(b) {
		set[k]--
		if set[k] < 0 {
			return false
		}
	}
	return true
}

func replayHas(res *cxlmc.Result, want cxlmc.Bug) bool {
	for _, b := range res.Bugs {
		if b.Kind == want.Kind && b.Message == want.Message {
			return true
		}
	}
	return false
}

// Swarm stress-tests n consecutive seeds starting at start, writing one
// progress line per seed to w (nil silences it), and returns every
// result with at least one violation.
func Swarm(w io.Writer, start int64, n int, opts StressOptions) []StressResult {
	var bad []StressResult
	for i := 0; i < n; i++ {
		sr := StressOne(start+int64(i), opts)
		if w != nil {
			status := "ok"
			if len(sr.Violations) > 0 {
				status = "VIOLATION"
			}
			fmt.Fprintf(w, "stress seed=%d execs=%d bugs=%d complete=%v %s\n",
				sr.Seed, sr.Executions, sr.Bugs, sr.Complete, status)
			for _, violation := range sr.Violations {
				fmt.Fprintf(w, "  %s\n", violation)
			}
		}
		if len(sr.Violations) > 0 {
			bad = append(bad, sr)
		}
	}
	return bad
}
