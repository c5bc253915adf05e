package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	cxlmc "repro"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/recipe"
)

// opDeadline bounds one op: a hang is a failed op, not a stuck run.
// Engine runs get it through Config.Stop (the channel the CLI wires
// SIGINT to), so the configuration measured is the CLI's default, with
// no watchdog timer on the handoff path.
const opDeadline = 30 * time.Second

// litmusExecs is the size of one litmus round: generated programs are
// taken from the seed upwards until they explore this many executions.
// It is the total of the 200 programs at DefaultSeed; sizing a round by
// work instead of by program count keeps rounds of different seeds
// within a few percent of each other (200 programs vary by ±15 %).
const litmusExecs = 4340

// env is what a workload's set-up is given.
type env struct {
	seed int64
	root string // repository root: examples/src/cceh.go is read from it
	dir  string // this process's work directory, under bench/out
	pins *Pins
}

// opStats is what one op explored.
type opStats struct {
	execs int
	steps int64
}

// instance is one set-up workload. op runs one operation on the calling
// goroutine, checks its verdict, and records spans when tr is non-nil.
// ledger adds the workload's per-layer metrics to l; p50 is the median
// untraced op time in seconds. A ratio of two kinds of run is measured
// on reps alternating pairs of them (see paired), never against p50:
// the machine may have drifted since the timed ops.
type instance interface {
	op(tr *tracer) (opStats, error)
	ledger(l map[string]float64, p50 float64, reps int) error
	close()
}

// setups maps each workload to its set-up function.
var setups = map[string]func(*env) (instance, error){
	Table5:     setupTable5,
	Litmus:     setupLitmus,
	SourceCCEH: setupSourceCCEH,
	BwtreePar:  func(e *env) (instance, error) { return setupBwtree(e, false) },
	Dist2W:     func(e *env) (instance, error) { return setupBwtree(e, true) },
	JobsAPI:    setupJobs,
}

// explore runs one exploration to completion under the op deadline and
// checks its verdict against the pin named key ("" skips the check:
// the run need only complete).
func (e *env) explore(tr *tracer, parent int, cfg cxlmc.Config, prog func(*cxlmc.Program), key string) (*cxlmc.Result, error) {
	stop := make(chan struct{})
	timer := time.AfterFunc(opDeadline, func() { close(stop) })
	defer timer.Stop()
	cfg.Stop = stop
	span := tr.begin("cxlmc.Run", parent)
	res, err := cxlmc.Run(cfg, prog)
	tr.end(span)
	if err != nil {
		return nil, err
	}
	v, err := verdictOf(res)
	if err != nil {
		return nil, err
	}
	if key != "" {
		if err := e.pins.Check(key, v); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cliConfig is the configuration `cxlmc -bench` runs by default: race
// detection on, armed by the cxlvet pre-pass.
func cliConfig(prog func(*cxlmc.Program)) (cxlmc.Config, error) {
	cfg := cxlmc.Config{Workers: 1, RaceDetect: cxlmc.SwitchOn}
	rep, err := cxlmc.Vet(cfg, prog)
	if err != nil {
		return cfg, fmt.Errorf("vet: %w", err)
	}
	cfg.UnflushedLines = rep.FlaggedLines()
	return cfg, nil
}

// --- table5 ---------------------------------------------------------------

type table5Row struct {
	name string
	cfg  cxlmc.Config
	prog func(*cxlmc.Program)
	secs []float64
	last *cxlmc.Result
}

type table5 struct {
	e     *env
	rows  []*table5Row
	vetMS float64
}

func setupTable5(e *env) (instance, error) {
	w := &table5{e: e}
	for _, gpf := range []bool{false, true} {
		for i, b := range harness.Benchmarks {
			prog := recipe.Program(b, harness.Table5Config())
			var cfg cxlmc.Config
			if gpf {
				// The dry run injects no failure, so GPF cannot change
				// what it flags: the GPF rows reuse the six vets.
				cfg = w.rows[i].cfg
				cfg.GPF = true
			} else {
				start := time.Now()
				var err error
				if cfg, err = cliConfig(prog); err != nil {
					return nil, fmt.Errorf("%s: %w", b.Name, err)
				}
				w.vetMS += ms(time.Since(start))
			}
			w.rows = append(w.rows, &table5Row{name: Table5Rows[len(w.rows)], cfg: cfg, prog: prog})
		}
	}
	return w, nil
}

func (w *table5) op(tr *tracer) (opStats, error) {
	return w.round(tr, false)
}

// round runs the twelve rows once. raceOff runs them with the detector
// off, which only has to complete.
func (w *table5) round(tr *tracer, raceOff bool) (opStats, error) {
	var st opStats
	root := tr.begin("table5.round", -1)
	defer tr.end(root)
	for _, r := range w.rows {
		cfg, key := r.cfg, "table5/"+r.name
		if raceOff {
			cfg.RaceDetect, cfg.UnflushedLines, key = cxlmc.SwitchOff, nil, ""
		}
		start := time.Now()
		res, err := w.e.explore(tr, root, cfg, r.prog, key)
		if err != nil {
			return st, fmt.Errorf("%s: %w", r.name, err)
		}
		if !raceOff {
			r.secs = append(r.secs, time.Since(start).Seconds())
			r.last = res
		}
		st.execs += res.Executions
		st.steps += res.Steps
	}
	return st, nil
}

func (w *table5) ledger(l map[string]float64, p50 float64, reps int) error {
	var execs, points, steps, saved, pruned float64
	for _, r := range w.rows {
		rowP50 := median(r.secs)
		l["recipe.verdict_ms."+r.name] = rowP50 * 1e3
		l["recipe.ns_per_step."+r.name] = rowP50 * 1e9 / float64(r.last.Steps)
		l["recipe.execs."+r.name] = float64(r.last.Executions)
		execs += float64(r.last.Executions)
		points += float64(r.last.FailurePoints + r.last.ReadFromPoints)
		steps += float64(r.last.Steps)
		saved += float64(r.last.StepsSaved)
		pruned += float64(r.last.Pruned)
	}
	on, off, err := paired(reps,
		func() error { _, err := w.round(nil, false); return err },
		func() error { _, err := w.round(nil, true); return err })
	if err != nil {
		return fmt.Errorf("race detector on/off rounds: %w", err)
	}
	l["core.race_tax_ratio"] = on / off
	l["core.ns_per_step.table5"] = p50 * 1e9 / steps
	l["core.ns_per_exec.table5"] = p50 * 1e9 / execs
	l["core.prefix_fork_step_ratio.table5"] = saved / steps
	l["core.pruned_per_exec.table5"] = pruned / execs
	l["decision.points_per_exec.table5"] = points / execs
	l["analyze.vet_ms.table5"] = w.vetMS
	// Steps the prefix-fork fast path replays from its log hand nothing
	// off; every other step is one Grant→Pause round trip.
	l["sched.handoff_share.table5"] = handoffNS(time.Duration(reps)*20*time.Millisecond) * 1e-9 * (steps - saved) / p50
	l["detail.table5.race_on_s_p50"] = on
	l["detail.table5.race_off_s_p50"] = off
	return nil
}

func (w *table5) close() {}

// --- litmus ---------------------------------------------------------------

type litmus struct {
	e     *env
	progs []func(*cxlmc.Program)
	want  Verdict
}

// setupLitmus generates the round's programs and, by running them once,
// the verdict every later round must reproduce exactly; at DefaultSeed
// that reference pass is itself checked against the pin.
func setupLitmus(e *env) (instance, error) {
	w := &litmus{e: e}
	cfg := cxlmc.Config{Workers: 1, ContinueAfterBug: true}
	for i := 0; w.want.Executions < litmusExecs; i++ {
		prog := harness.Generate(e.seed+int64(i), harness.GenConfig{})
		res, err := e.explore(nil, -1, cfg, prog, "")
		if err != nil {
			return nil, fmt.Errorf("generated program %d: %w", e.seed+int64(i), err)
		}
		v, _ := verdictOf(res)
		w.want.add(v, fmt.Sprintf("%d: ", i))
		w.progs = append(w.progs, prog)
	}
	w.want.digestBugs()
	if e.seed == DefaultSeed {
		if err := e.pins.Check("litmus", w.want); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *litmus) op(tr *tracer) (opStats, error) {
	var got Verdict
	cfg := cxlmc.Config{Workers: 1, ContinueAfterBug: true}
	root := tr.begin("litmus.round", -1)
	defer tr.end(root)
	for i, prog := range w.progs {
		res, err := w.e.explore(tr, root, cfg, prog, "")
		if err != nil {
			return opStats{}, fmt.Errorf("generated program %d: %w", w.e.seed+int64(i), err)
		}
		v, _ := verdictOf(res)
		got.add(v, fmt.Sprintf("%d: ", i))
	}
	got.digestBugs()
	st := opStats{execs: got.Executions, steps: got.Steps}
	if !got.equal(w.want) {
		return st, fmt.Errorf("litmus round: verdict %v, reference pass %v", got, w.want)
	}
	return st, nil
}

func (w *litmus) ledger(l map[string]float64, p50 float64, reps int) error {
	l["core.ns_per_step.litmus"] = p50 * 1e9 / float64(w.want.Steps)
	l["core.ns_per_exec.litmus"] = p50 * 1e9 / float64(w.want.Executions)
	l["harness.litmus_execs"] = float64(w.want.Executions)
	l["harness.litmus_steps"] = float64(w.want.Steps)
	return nil
}

func (w *litmus) close() {}

// --- source_cceh ----------------------------------------------------------

type sourceCCEH struct {
	e      *env
	src    []byte
	prog   func(*cxlmc.Program)
	loadMS float64
	steps  int64
}

const ccehSource = "examples/src/cceh.go"

func setupSourceCCEH(e *env) (instance, error) {
	src, err := os.ReadFile(filepath.Join(e.root, ccehSource))
	if err != nil {
		return nil, err
	}
	w := &sourceCCEH{e: e, src: src}
	start := time.Now()
	if w.prog, err = cxlmc.ProgramFromSource(ccehSource, src, ""); err != nil {
		return nil, err
	}
	w.loadMS = ms(time.Since(start))
	return w, nil
}

// ccehBugConfig is the exploration source_cceh, its hand-ported twin and
// the jobs_api spec share: every execution, not just up to the first bug.
var ccehBugConfig = cxlmc.Config{Workers: 1, ContinueAfterBug: true}

func (w *sourceCCEH) op(tr *tracer) (opStats, error) {
	res, err := w.e.explore(tr, -1, ccehBugConfig, w.prog, SourceCCEH)
	if err != nil {
		return opStats{}, err
	}
	w.steps = res.Steps
	return opStats{res.Executions, res.Steps}, nil
}

func (w *sourceCCEH) ledger(l map[string]float64, p50 float64, reps int) error {
	// The hand-ported twin seeds the same bug, so the two explorations
	// are identical and the gap is interpretation alone.
	twin := recipe.Program(harness.Benchmarks[0], recipe.Config{Keys: 10, Workers: 1, Bugs: 1})
	src, twinS, err := paired(reps,
		func() error { _, err := w.op(nil); return err },
		func() error { _, err := w.e.explore(nil, -1, ccehBugConfig, twin, SourceCCEH); return err })
	if err != nil {
		return fmt.Errorf("source and hand-ported twin: %w", err)
	}
	var loads []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := cxlmc.ProgramFromSource(ccehSource, w.src, ""); err != nil {
			return err
		}
		loads = append(loads, ms(time.Since(start)))
	}
	l["gofront.load_ms"] = median(loads)
	l["gofront.interp_ratio"] = src / twinS
	l["gofront.ns_per_step"] = p50 * 1e9 / float64(w.steps)
	l["detail.source_cceh.source_s_p50"] = src
	l["detail.source_cceh.twin_s_p50"] = twinS
	return nil
}

func (w *sourceCCEH) close() {}

// paired alternates a and b reps times and returns the median wall
// time of each in seconds, so that their ratio compares runs that saw
// the same machine.
func paired(reps int, a, b func() error) (aP50, bP50 float64, err error) {
	var secs [2][]float64
	for i := 0; i < 2*reps; i++ {
		run := a
		if i%2 == 1 {
			run = b
		}
		start := time.Now()
		if err := run(); err != nil {
			return 0, 0, err
		}
		secs[i%2] = append(secs[i%2], time.Since(start).Seconds())
	}
	return median(secs[0]), median(secs[1]), nil
}

// --- bwtree_par and dist_2w -------------------------------------------------

// bwtree explores the Table 5 P-BwTree program, either with the
// in-process parallel engine at Workers: 2 or through a coordinator and
// two single-worker dist workers. Both explore exactly what the serial
// table5 row does, so both check against its pin.
type bwtree struct {
	e    *env
	dist bool
	cfg  cxlmc.Config
	prog func(*cxlmc.Program)

	// Summed over traced ops (bwtree_par) or all ops (dist_2w).
	counted int
	counts  map[string]float64
}

const bwtreeKey = "table5/P-BwTree"

func setupBwtree(e *env, distributed bool) (instance, error) {
	b, _ := harness.ByName("P-BwTree")
	prog := recipe.Program(b, harness.Table5Config())
	cfg, err := cliConfig(prog)
	if err != nil {
		return nil, err
	}
	return &bwtree{e: e, dist: distributed, cfg: cfg, prog: prog, counts: map[string]float64{}}, nil
}

func (w *bwtree) op(tr *tracer) (opStats, error) {
	if w.dist {
		return w.distOp(tr, w.prog, bwtreeKey)
	}
	cfg := w.cfg
	cfg.Workers = 2
	var reg *cxlmc.MetricsRegistry
	if tr != nil {
		reg = cxlmc.NewMetricsRegistry()
		cfg.Obs = reg
	}
	res, err := w.e.explore(tr, -1, cfg, w.prog, bwtreeKey)
	if err != nil {
		return opStats{}, err
	}
	if reg != nil {
		w.counted++
		w.counts["claims"] += reg.Snapshot()["cxlmc_unit_claims_total"]
	}
	return opStats{res.Executions, res.Steps}, nil
}

// distOp is one whole distributed exploration: coordinator up, two
// workers join and drain it, coordinator down. Only the P-BwTree op is
// checked against a pin and counted; the empty op need only complete.
func (w *bwtree) distOp(tr *tracer, prog func(*cxlmc.Program), key string) (opStats, error) {
	stop := make(chan struct{})
	timer := time.AfterFunc(opDeadline, func() { close(stop) })
	defer timer.Stop()

	root := tr.begin("dist_2w.op", -1)
	defer tr.end(root)
	span := tr.begin("dist.StartCoordinator", root)
	c, err := dist.StartCoordinator(dist.CoordinatorConfig{Check: w.cfg, Program: prog, Addr: "127.0.0.1:0"})
	tr.end(span)
	if err != nil {
		return opStats{}, err
	}
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for i := range werrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			span := tr.begin("dist.RunWorker", root)
			_, werrs[i] = dist.RunWorker(dist.WorkerConfig{
				Check: w.cfg, Program: prog, Coordinator: c.Addr(), Name: fmt.Sprintf("w%d", i),
			})
			tr.end(span)
		}(i)
	}
	span = tr.begin("dist.Coordinator.Wait", root)
	res, err := c.Wait(stop)
	tr.end(span)
	wg.Wait()
	if err != nil {
		return opStats{}, err
	}
	for i, werr := range werrs {
		if werr != nil {
			return opStats{}, fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	v, err := verdictOf(res)
	if err != nil {
		return opStats{}, err
	}
	if key == bwtreeKey {
		if err := w.e.pins.Check(key, v); err != nil {
			return opStats{}, err
		}
		w.counted++
		snap := c.Registry().Snapshot()
		for _, name := range []string{"lease_grants", "units_donated", "rpc_retries", "lease_reclaims", "lease_stale_completions"} {
			w.counts[name] += snap["cxlmc_"+name+"_total"]
		}
	}
	return opStats{res.Executions, res.Steps}, nil
}

func (w *bwtree) ledger(l map[string]float64, p50 float64, reps int) error {
	n := float64(w.counted)
	inProcess := func(workers int) func() error {
		cfg := w.cfg
		cfg.Workers = workers
		return func() error { _, err := w.e.explore(nil, -1, cfg, w.prog, bwtreeKey); return err }
	}
	if !w.dist {
		serial, parallel, err := paired(reps, inProcess(1), inProcess(2))
		if err != nil {
			return fmt.Errorf("Workers 1 and 2: %w", err)
		}
		l["core.parallel_speedup_2w"] = serial / parallel
		l["core.unit_claims_per_op.bwtree_par"] = w.counts["claims"] / n
		l["detail.bwtree_par.workers1_s_p50"] = serial
		l["detail.bwtree_par.workers2_s_p50"] = parallel
		return nil
	}
	viaDist, local, err := paired(reps,
		func() error { _, err := w.distOp(nil, w.prog, bwtreeKey); return err }, inProcess(2))
	if err != nil {
		return fmt.Errorf("distributed and in-process: %w", err)
	}
	l["dist.tax_ratio"] = viaDist / local
	l["detail.dist_2w.dist_s_p50"] = viaDist
	l["detail.dist_2w.in_process_s_p50"] = local
	l["dist.lease_grants_per_op"] = w.counts["lease_grants"] / n
	l["dist.units_donated_per_op"] = w.counts["units_donated"] / n
	l["dist.rpc_retries_per_op"] = w.counts["rpc_retries"] / n
	l["dist.lease_reclaims_per_op"] = w.counts["lease_reclaims"] / n
	l["dist.stale_completions_per_op"] = w.counts["lease_stale_completions"] / n
	// The same cycle on the 14-execution Figure 3 program is almost all
	// protocol: join, lease, complete, shutdown.
	var empty []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := w.distOp(nil, figure3, ""); err != nil {
			return fmt.Errorf("empty dist op: %w", err)
		}
		empty = append(empty, ms(time.Since(start)))
	}
	l["dist.empty_op_ms"] = median(empty)
	return nil
}

func (w *bwtree) close() {}

// figure3 is the paper's Figure 3 program (remote-load refinement and
// consecutive-load consistency): 14 executions.
func figure3(p *cxlmc.Program) {
	a, b := p.NewMachine("A"), p.NewMachine("B")
	y, x := p.Alloc(8), p.Alloc(8)
	hb := p.AllocAligned(8, 64)
	a.Thread("w", func(t *cxlmc.Thread) {
		t.Store64(y, 1)
		t.Store64(x, 2)
		t.Store64(y, 3)
		t.Store64(x, 4)
		t.Store64(y, 5)
		t.Store64(x, 6)
		t.Store64(hb, 1)
		t.CLFlush(hb)
		t.SFence()
	})
	b.Thread("r", func(t *cxlmc.Thread) {
		t.Join(a)
		v1 := t.Load64(y)
		v2 := t.Load64(y)
		t.Assert(v1 == v2, "consecutive loads disagree")
		t.Load64(x)
	})
}

// --- jobs_api -------------------------------------------------------------

// jobsSpec is the job every jobs_api op submits: the hand-ported CCEH
// with bug #1 seeded, explored in full, configured as the CLI would.
var jobsSpec = jobs.Spec{Bench: "CCEH", Bugs: 1, ContinueAfterBug: true, RaceDetect: cxlmc.SwitchOn}

type jobsAPI struct {
	e       *env
	dir     string
	srv     *jobs.Server
	client  *jobs.Client
	startMS float64

	submitted                                int
	submitMS, queueMS, runMS, lagMS, totalMS []float64
}

func setupJobs(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "jobs-")
	if err != nil {
		return nil, err
	}
	w := &jobsAPI{e: e, dir: dir}
	start := time.Now()
	if err := w.start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	w.startMS = ms(time.Since(start))
	return w, nil
}

func (w *jobsAPI) start() error {
	srv, err := jobs.Start(jobs.Config{Addr: "127.0.0.1:0", Dir: w.dir})
	if err != nil {
		return err
	}
	w.srv, w.client = srv, jobs.NewClient(srv.Addr())
	return nil
}

func (w *jobsAPI) op(tr *tracer) (opStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	root := tr.begin("jobs_api.op", -1)
	defer tr.end(root)

	start := time.Now()
	span := tr.begin("jobs.Client.Submit", root)
	st, err := w.client.Submit(ctx, jobsSpec)
	tr.end(span)
	if err != nil {
		return opStats{}, fmt.Errorf("submit: %w", err)
	}
	w.submitted++
	submitted := time.Now()
	span = tr.begin("jobs.Client.Wait", root)
	st, err = w.client.Wait(ctx, st.ID, 2*time.Millisecond)
	tr.end(span)
	done := time.Now()
	if err != nil {
		return opStats{}, fmt.Errorf("wait: %w", err)
	}
	if st.State != jobs.StateDone || st.Result == nil {
		return opStats{}, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	v, err := verdictOf(st.Result)
	if err != nil {
		return opStats{}, err
	}
	if err := w.e.pins.Check(JobsAPI, v); err != nil {
		return opStats{}, err
	}
	w.submitMS = append(w.submitMS, ms(submitted.Sub(start)))
	w.queueMS = append(w.queueMS, ms(st.Started.Sub(st.Submitted)))
	w.runMS = append(w.runMS, ms(st.Finished.Sub(st.Started)))
	w.lagMS = append(w.lagMS, ms(done.Sub(st.Finished)))
	w.totalMS = append(w.totalMS, ms(done.Sub(start)))
	return opStats{st.Result.Executions, st.Result.Steps}, nil
}

func (w *jobsAPI) ledger(l map[string]float64, p50 float64, reps int) error {
	prog, _ := harness.ProgramByName(jobsSpec.Bench, recipe.Config{Bugs: recipe.Bug(jobsSpec.Bugs)})
	cfg, err := cliConfig(prog)
	if err != nil {
		return err
	}
	cfg.ContinueAfterBug = true
	viaAPI, direct, err := paired(2*reps,
		func() error { _, err := w.op(nil); return err },
		func() error { _, err := w.e.explore(nil, -1, cfg, prog, JobsAPI); return err })
	if err != nil {
		return fmt.Errorf("job and direct run: %w", err)
	}
	journal, err := os.Stat(filepath.Join(w.dir, "journal.jsonl"))
	if err != nil {
		return err
	}
	rejected := w.srv.Registry().Snapshot()["cxlmc_jobs_rejected"]
	// Restart on the store the run just filled: Start replays the journal.
	if err := w.srv.Close(); err != nil {
		return err
	}
	start := time.Now()
	if err := w.start(); err != nil {
		return fmt.Errorf("restart on the filled store: %w", err)
	}
	l["jobs.recover_ms"] = ms(time.Since(start))
	l["jobs.start_ms"] = w.startMS
	l["jobs.submit_ms_p50"] = median(w.submitMS)
	l["jobs.queue_wait_ms_p50"] = median(w.queueMS)
	l["jobs.run_ms_p50"] = median(w.runMS)
	l["jobs.poll_lag_ms_p50"] = median(w.lagMS)
	l["jobs.latency_ms_p95"] = quantile(w.totalMS, 0.95)
	l["jobs.service_tax_ratio"] = viaAPI / direct
	l["jobs.journal_bytes_per_job"] = float64(journal.Size()) / float64(w.submitted)
	l["jobs.rejected_ratio"] = rejected / float64(w.submitted)
	l["detail.jobs_api.job_s_p50"] = viaAPI
	l["detail.jobs_api.direct_s_p50"] = direct
	return nil
}

func (w *jobsAPI) close() {
	w.srv.Close()
	os.RemoveAll(w.dir)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
