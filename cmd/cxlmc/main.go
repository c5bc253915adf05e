// Command cxlmc runs one benchmark program under the CXLMC model
// checker and reports the bugs found together with exploration
// statistics.
//
// Usage:
//
//	cxlmc -bench CCEH [-keys 10] [-insert-workers 1] [-stride 1] [-bugs 0x3]
//	      [-gpf] [-poison] [-seed 0] [-max-execs 0] [-max-time 0] [-trace]
//	      [-workers 0] [-cpuprofile file] [-memprofile file]
//	      [-checkpoint file] [-checkpoint-every N] [-checkpoint-interval d]
//	      [-replay token] [-max-events N]
//	      [-reduction on|off] [-prefix-fork on|off] [-race-detect on|off]
//	      [-chaos] [-chaos-seed N]
//	      [-metrics-addr host:port] [-progress d] [-event-log file]
//	      [-metrics-snapshot file] [-continue]
//	cxlmc -check file.go [-entry Program] [exploration flags]
//	cxlmc -vet -bench NAME | -vet -check file.go
//	cxlmc -stress N [-seed 0] [-chaos]
//	cxlmc -jobserver addr -jobs-dir dir [-job-workers 2] [-queue-depth 32]
//	cxlmc submit -addr host:port -bench NAME | -source file.go | -gen
//	      [the program and exploration flags above] [-tenant name] [-wait]
//	cxlmc status|cancel|wait -addr host:port JOB-ID
//	cxlmc jobs -addr host:port [-tenant name]
//
// -bench names one of the RECIPE benchmarks (CCEH, FAST_FAIR, P-ART,
// P-BwTree, P-CLHT, P-MassTree), a CXL-SHM case (kv, test_stress), or
// vet-demo (a purpose-built static-analysis example).
// -bugs is a bitmask enabling that benchmark's seeded bugs (0 = fixed).
//
// -check points the checker at a real Go source file instead of a named
// benchmark: the file is written against the public gofront/cxl API
// (import "cxl" or "repro/gofront/cxl"), type-checked against the
// supported subset, and compiled once at load so every load, store,
// flush, fence, atomic and lock is a checker event — reduction, prefix-fork,
// race detection, repro tokens and -replay all work unchanged. -entry
// names the entry function (signature func(*cxl.Region); default
// Program). Parse errors, type errors and unsupported constructs are
// reported as file:line diagnostics with exit code 2, never a panic.
// The workload-shape flags (-keys, -insert-workers, -stride, -bugs)
// describe the built-in benchmarks and are ignored with -check: a
// source program's workload is whatever its entry function builds.
//
// -workers sets the number of parallel exploration workers (0 =
// GOMAXPROCS); the explored execution set and the distinct bugs found
// are identical for every worker count. It is distinct from
// -insert-workers, which shapes the simulated workload (insert threads
// per machine). -cpuprofile and -memprofile write pprof profiles of the
// exploration.
//
// Long explorations are resilient: -checkpoint persists progress
// crash-safely and resumes from the same file on restart (checkpoints
// are portable across -workers counts), Ctrl-C or SIGTERM stops
// gracefully at the next execution boundary (writing a final
// checkpoint), and -replay re-runs the single execution a reported
// bug's repro token witnessed, with tracing on. -max-time is checked every
// 1024 scheduler steps and at execution boundaries, a stop at execution
// boundaries. There is no watchdog: nothing a run checks blocks outside
// the simulated API (the benchmarks make no blocking call, and -check
// source has no go, select or channels), and a callback that did would
// hang the run, as in the paper's runtime.
//
// Resource bounds: a run's memory is bounded by what it checks, not by how
// long it runs (the checker keeps a decision path, never a state). -max-events
// bounds the decision points one execution may create, turning
// per-execution state-space blowup into a structured resource-exhausted bug
// report.
//
// Algorithmic reduction: -reduction (default on) prunes failure
// decision points no surviving thread could ever observe, exploring
// fewer executions with a provably identical bug set; -prefix-fork
// (default on) resumes each execution from the decision prefix it
// shares with its predecessor instead of re-running it. Both are pure
// optimizations; -reduction=off -prefix-fork=off restores the
// exhaustive baseline (repro tokens record the -reduction setting and
// replay under the same setting).
//
// Static analysis and race detection: -vet runs only the cxlvet static
// pre-pass — one instrumented deterministic dry run of the program —
// and prints its findings (lock-order cycles, unflushed publishes,
// dead failure points) in a stable machine-readable format, exiting 1
// if there are findings and 0 on a clean program. -race-detect
// (default on) enables the happens-before data-race detector during
// exploration and feeds the vet pre-pass's unflushed-publish lines to
// the checker so a crash exposing one is reported as an
// unflushed-publish bug; repro tokens record the setting and replay
// under the same setting.
//
// Observability: -metrics-addr serves /metrics (Prometheus text),
// /statusz (JSON run status) and /debug/pprof for the duration of a local,
// -seeds or -replay run (-jobserver serves them on its own address, and
// refuses the flag); -progress d prints a one-line status to stderr once d
// has passed since the last line (not with -jobserver, whose jobs report
// through GET /jobs/{id}); -event-log streams the
// structured exploration event trace (execution boundaries, decisions,
// bugs and checkpoints) as JSON lines to a file; -metrics-snapshot
// writes the final metric values as JSON when the run ends. SIGUSR1 dumps a
// status report to stderr at once without stopping the run. /statusz and the
// SIGUSR1 report are the last progress snapshot, which the engine takes every
// 250 ms, so they can be up to that old.
//
// -continue keeps exploring after the first bug (any mode).
//
// Checking as a service: -jobserver runs this process as a long-lived,
// multi-tenant job server. Clients submit exploration jobs (a benchmark
// or generated recipe plus a whitelisted subset of the checker's
// configuration) over a REST API — POST /jobs, GET /jobs/{id}[?wait=30s]
// (with wait the request parks at the server until the job is terminal),
// POST /jobs/{id}/cancel — or through the submit/status/cancel/wait/jobs
// verbs; status, jobs and wait ride through a server restart. Jobs are journaled
// to -jobs-dir together with per-job engine checkpoints: a kill -9
// followed by a restart on the same directory resumes running jobs from
// their last checkpoint and re-queues queued ones, losing and
// duplicating nothing. SIGTERM drains gracefully (exit 0); a second
// signal force-exits with code 3. The program and exploration flags
// (-bench ... -race-detect) are declared once, by jobs.Spec.BindFlags, and
// mean the same on the flag-driven run and on submit; given to -jobserver,
// the budget ones (-workers, -max-time, -max-events) are the defaults of jobs
// whose spec leaves them unset. A submitted spec's workload is bounded
// (insert_workers 1..8, and a generated program's shape), so one tenant's job
// cannot take the memory the others run in.
//
// -stress N runs the self-fuzzing harness over N seeded random
// programs (starting at -seed), checking the checker's own invariants:
// no panics, serial/parallel parity, every repro token replays. With
// -chaos each sampled program additionally interrupts and resumes the
// exploration under seeded fault injection and requires convergence to
// the uninterrupted result. -chaos also works with -bench, injecting
// faults (seeded by -chaos-seed) into that run's checkpoint I/O.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	cxlmc "repro"
	"repro/internal/analyze"
	"repro/internal/cxlshm"
	"repro/internal/gofront"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/internal/obs"
)

func main() {
	// The body lives in dispatch/run so their defers (profile writers,
	// in particular) execute before the process exits: os.Exit skips
	// deferred calls.
	os.Exit(dispatch())
}

// dispatch routes the job-client verbs (cxlmc submit|status|cancel|wait|
// jobs ...) to the job-server client and everything else to the classic
// flag-driven run.
func dispatch() int {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "submit", "status", "cancel", "wait", "jobs":
			return runJobVerb(os.Args[1], os.Args[2:])
		}
	}
	return run()
}

// cliSpec is the spec both the flag-driven run and the submit verb bind
// their flags to: what a flag means when absent is the same in every mode
// (cmd/cxlmc explores with race detection on).
func cliSpec() jobs.Spec {
	return jobs.Spec{Reduction: cxlmc.SwitchOn, PrefixFork: cxlmc.SwitchOn, RaceDetect: cxlmc.SwitchOn}
}

func run() int {
	spec := cliSpec()
	spec.BindFlags(flag.CommandLine)
	var (
		checkFile  = flag.String("check", "", "check a Go source file written against the gofront/cxl API instead of a named benchmark")
		trace      = flag.Bool("trace", false, "stream a per-event trace to stdout")
		seeds      = flag.Int("seeds", 1, "fuzz across this many schedule seeds (§4.6)")
		list       = flag.Bool("list", false, "list benchmarks and their seeded bugs")
		checkpoint = flag.String("checkpoint", "", "checkpoint file: resume from it if present, write progress to it")
		cpEvery    = flag.Int("checkpoint-every", 0, "checkpoint every N executions (0 = off)")
		cpInterval = flag.Duration("checkpoint-interval", 0, "checkpoint every interval (0 = every 2 s when -checkpoint-every is 0 too, else off)")
		replay     = flag.String("replay", "", "replay a bug's repro token against -bench instead of exploring")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the exploration to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the exploration) to this file")
		vetOnly    = flag.Bool("vet", false, "run only the cxlvet static pre-pass and print its findings (exit 1 if any)")
		chaosOn    = flag.Bool("chaos", false, "inject seeded faults into checkpoint I/O and worker scheduling (with -stress: add the resume-under-chaos leg)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the -chaos fault injector")
		stress     = flag.Int("stress", 0, "self-fuzz N seeded random programs (starting at -seed) instead of running a benchmark")

		jobServer  = flag.String("jobserver", "", "run as a multi-tenant job server: accept exploration jobs over a REST API on this address (\":0\" picks a port)")
		jobsDir    = flag.String("jobs-dir", "", "durable job store directory — journal plus per-job checkpoints (required with -jobserver)")
		jobWorkers = flag.Int("job-workers", 0, "jobs the server runs concurrently (with -jobserver; 0 = 2)")
		queueDepth = flag.Int("queue-depth", 0, "queued jobs allowed per tenant before submissions get 429 (with -jobserver; 0 = 32)")

		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address for the duration of a local or -replay run (\":0\" picks a port)")
		progressEach = flag.Duration("progress", 0, "print a one-line progress report to stderr this often (0 = no lines; not with -jobserver)")
		eventLog     = flag.String("event-log", "", "stream the structured exploration event trace to this file as JSON lines")
		metricsSnap  = flag.String("metrics-snapshot", "", "write the final metric values to this file as JSON when the run ends")
	)
	flag.Parse()

	if *list {
		listBenchmarks()
		return 0
	}
	if *stress > 0 {
		bad := harness.Swarm(os.Stdout, spec.Seed, *stress, harness.StressOptions{Chaos: *chaosOn})
		if len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "cxlmc: %d of %d stress programs violated checker invariants\n", len(bad), *stress)
			return 1
		}
		fmt.Printf("stress      %d programs (seeds %d..%d), zero checker-invariant violations\n",
			*stress, spec.Seed, spec.Seed+int64(*stress)-1)
		return 0
	}
	if spec.Bench == "" && *checkFile == "" && *jobServer == "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -bench or -check is required (try -list)")
		return 2
	}
	if spec.Bench != "" && *checkFile != "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -bench and -check are mutually exclusive (a run checks one program)")
		return 2
	}
	if spec.Entry != "" && *checkFile == "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -entry names a function in the -check file; it needs -check")
		return 2
	}
	if *jobServer != "" && (*replay != "" || *vetOnly || spec.Bench != "" || *checkFile != "") {
		fmt.Fprintln(os.Stderr, "cxlmc: -jobserver is a standalone mode; submit programs as jobs (cxlmc submit) instead of -bench/-check/-replay/-vet")
		return 2
	}
	if *checkpoint != "" && *seeds > 1 {
		fmt.Fprintln(os.Stderr, "cxlmc: -checkpoint tracks a single exploration; use -seeds 1 (one checkpoint file per seed)")
		return 2
	}
	if *vetOnly && *replay != "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -vet is a static pre-pass; drop -replay")
		return 2
	}
	if *metricsAddr != "" && *jobServer != "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -jobserver already serves /metrics and /statusz on its own address; drop -metrics-addr")
		return 2
	}
	if *progressEach > 0 && *jobServer != "" {
		fmt.Fprintln(os.Stderr, "cxlmc: a job server prints no progress; each job's is in GET /jobs/{id}, drop -progress")
		return 2
	}
	// The workload's bounds are the ones a submitted spec is held to.
	if err := spec.CheckBounds(); err != nil {
		fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
		return 2
	}

	// The plumbing flags make the base; the spec lays its knobs over it —
	// as it does over the job server's base for a submitted job.
	cfg := spec.Config(cxlmc.Config{
		CheckpointPath: *checkpoint, CheckpointEvery: *cpEvery, CheckpointInterval: *cpInterval,
	})
	if *chaosOn {
		cfg.Chaos = cxlmc.NewChaos(cxlmc.ChaosConfig{
			Seed:          *chaosSeed,
			WriteErrPct:   20,
			ReadErrPct:    10,
			SyncErrPct:    10,
			RenameErrPct:  10,
			ShortWritePct: 50,
			StallPct:      5,
			MaxFaults:     200,
		})
	}

	if *metricsAddr != "" || *metricsSnap != "" {
		cfg.Obs = cxlmc.NewMetricsRegistry()
	}
	if *metricsSnap != "" {
		defer func() {
			data, _ := json.MarshalIndent(cfg.Obs.Snapshot(), "", "  ")
			if err := os.WriteFile(*metricsSnap, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "cxlmc: -metrics-snapshot: %v\n", err)
			}
		}()
	}
	if *eventLog != "" {
		f, err := os.Create(*eventLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: -event-log: %v\n", err)
			return 2
		}
		defer f.Close()
		evw := bufio.NewWriter(f)
		defer evw.Flush()
		cfg.EventTrace = evw
	}

	if *jobServer != "" {
		// Checking as a service: cfg is the base every job's run starts
		// from (budget defaults, cadences, chaos, metrics); specs arrive
		// over the API.
		return runJobServer(jobs.Config{Addr: *jobServer, Dir: *jobsDir, PoolWorkers: *jobWorkers, QueueDepth: *queueDepth, Base: cfg})
	}

	if *trace {
		cfg.Observer = cxlmc.TraceTo(os.Stdout)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cxlmc: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cxlmc: -memprofile: %v\n", err)
			}
		}()
	}

	// benchName labels output lines; reproFlags is the flag prefix a
	// printed repro token needs to replay (the source path replays with
	// -check/-entry instead of -bench).
	benchName := spec.Bench
	reproFlags := "-bench " + spec.Bench
	if *checkFile != "" {
		if spec.Entry == "" {
			spec.Entry = "Program"
		}
		benchName = *checkFile
		reproFlags = fmt.Sprintf("-check %s -entry %s", *checkFile, spec.Entry)
		src, err := os.ReadFile(*checkFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: -check: %v\n", err)
			return 2
		}
		spec.Source, spec.SourceName = string(src), *checkFile
		if *vetOnly {
			// The vet dry run doubles as the site-recording pass: the
			// SiteMap annotates each finding with the source position of
			// the store/flush/mutex it is about.
			s, err := gofront.Load(*checkFile, src)
			if err != nil {
				printDiagnostics(os.Stderr, err)
				return 2
			}
			vprog, sites, err := s.VetProgram(spec.Entry)
			if err != nil {
				printDiagnostics(os.Stderr, err)
				return 2
			}
			return runVet(cfg, vprog, sites.Annotate, os.Stdout, os.Stderr)
		}
	}
	program, err := spec.Program()
	if err != nil {
		if *checkFile != "" {
			printDiagnostics(os.Stderr, err)
		} else {
			fmt.Fprintf(os.Stderr, "cxlmc: %v (try -list)\n", err)
		}
		return 2
	}

	if *vetOnly {
		return runVet(cfg, program, nil, os.Stdout, os.Stderr)
	}

	// Status is served from the last snapshot the run handed OnProgress —
	// every 250 ms and at the end — so /statusz and the SIGUSR1 dump may be
	// up to that old. -progress prints one of them once its period has
	// passed since the last line. The server binds before anything is
	// explored: a bad address costs no run.
	var status atomic.Pointer[cxlmc.Progress]
	status.Store(&cxlmc.Progress{})
	lastLine := time.Now()
	cfg.OnProgress = func(p cxlmc.Progress) {
		status.Store(&p)
		if *progressEach > 0 && time.Since(lastLine) >= *progressEach {
			lastLine = time.Now()
			fmt.Fprintf(os.Stderr, "cxlmc: progress %s\n", p)
		}
	}
	// SIGUSR1 asks for a status dump, printed at once; the run goes on
	// untouched. Once Stop returns nothing is delivered, so closing ends the
	// printer.
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer func() { signal.Stop(usr1); close(usr1) }()
	go func() {
		for range usr1 {
			p := status.Load()
			fmt.Fprintf(os.Stderr, "cxlmc: status  %s\n", p)
			for _, w := range p.Workers {
				fmt.Fprintf(os.Stderr, "cxlmc:   worker %d %-4s execs=%d depth=%d units=%d\n",
					w.ID, w.State, w.Executions, w.Depth, w.Units)
			}
		}
	}()
	if *metricsAddr != "" {
		srv, err := obs.NewServer(*metricsAddr, cfg.Obs, func() any { return status.Load() })
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: -metrics-addr: %v\n", err)
			return 2
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cxlmc: status server on http://%s/ (/metrics /statusz /debug/pprof)\n", srv.Addr())
	}

	// The one arming step of every mode (run and replay; the job server
	// takes it per job), so the config digests they stamp match.
	if cfg, err = cxlmc.Arm(cfg, program); err != nil {
		fmt.Fprintf(os.Stderr, "cxlmc: %v\n", strings.TrimPrefix(err.Error(), "cxlmc: "))
		return 1
	}

	if *replay != "" {
		res, err := cxlmc.Replay(*replay, cfg, program)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", strings.TrimPrefix(err.Error(), "cxlmc: "))
			return 1
		}
		fmt.Printf("replayed    %s (seed %d) in %d execution(s), %v\n",
			benchName, res.Seed, res.Executions, res.Elapsed)
		if !res.Buggy() {
			fmt.Println("no bug reproduced — was the program or configuration changed?")
			return 1
		}
		for _, b := range res.Bugs {
			fmt.Printf("  %s\n", b)
			for _, line := range b.Trace {
				fmt.Printf("    %s\n", line)
			}
		}
		return 0
	}

	// Ctrl-C or SIGTERM (the signal process supervisors and batch
	// schedulers send) requests graceful interruption: the run stops at
	// the next execution boundary and, with -checkpoint, persists its
	// progress. A second signal force-exits immediately with code 3 —
	// distinct from the bug (1) and usage (2) codes so supervisors can
	// tell "operator gave up on the drain" from "run failed".
	stop := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "cxlmc: %v — stopping at the next execution boundary (again to force-exit)\n", s)
		close(stop)
		s = <-sig
		fmt.Fprintf(os.Stderr, "cxlmc: %v again — forced exit, skipping the graceful stop\n", s)
		os.Exit(3)
	}()
	cfg.Stop = stop

	// printResult renders one run's outcome, returning whether it found
	// bugs.
	printResult := func(res *cxlmc.Result, s int64) bool {
		fmt.Printf("benchmark   %s (bugs=%#x, gpf=%v, seed=%d)\n", benchName, spec.Bugs, spec.GPF, s)
		fmt.Printf("executions  %d (complete=%v)\n", res.Executions, res.Complete)
		fmt.Printf("fpoints     %d\n", res.FailurePoints)
		fmt.Printf("rfpoints    %d\n", res.ReadFromPoints)
		if res.Pruned > 0 || res.PrefixForks > 0 {
			fmt.Printf("reduction   pruned=%d prefix-forks=%d steps-saved=%d\n",
				res.Pruned, res.PrefixForks, res.StepsSaved)
		}
		if res.RaceReports > 0 {
			fmt.Printf("races       %d report(s) from the happens-before detector (distinct races under BUGS FOUND)\n",
				res.RaceReports)
		}
		fmt.Printf("time        %v\n", res.Elapsed)
		if res.Resumed {
			fmt.Println("resumed     from checkpoint")
		}
		if res.Quarantined {
			fmt.Printf("quarantined corrupt checkpoint moved to %s.corrupt, started fresh\n", *checkpoint)
		}
		if res.CheckpointErrors > 0 {
			fmt.Printf("cp-errors   %d periodic checkpoint write(s) failed and were tolerated\n", res.CheckpointErrors)
		}
		if res.Interrupted {
			where := "progress discarded (no -checkpoint)"
			if *checkpoint != "" {
				where = "progress saved to " + *checkpoint
			}
			fmt.Printf("interrupted %s\n", where)
		}
		if res.Buggy() {
			fmt.Printf("BUGS FOUND  %d\n", len(res.Bugs))
			for _, b := range res.Bugs {
				fmt.Printf("  %s\n", b)
				if b.ReproToken != "" {
					fmt.Printf("    repro: %s -replay %s\n", reproFlags, b.ReproToken)
				}
			}
			return true
		}
		fmt.Println("no bugs found")
		return false
	}

	buggy := false
	for s := spec.Seed; s < spec.Seed+int64(*seeds); s++ {
		cfg.Seed = s
		res, err := cxlmc.Run(cfg, program)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", strings.TrimPrefix(err.Error(), "cxlmc: "))
			return 1
		}
		if printResult(res, s) {
			buggy = true
		}
		if res.Interrupted {
			break
		}
	}
	if buggy {
		return 1
	}
	return 0
}

func listBenchmarks() {
	for _, b := range harness.Benchmarks {
		fmt.Printf("%s\n", b.Name)
		for _, bi := range b.Bugs {
			star := " "
			if bi.New {
				star = "*"
			}
			fmt.Printf("  bug #%-2d%s bit %#-4x %s\n", bi.Table, star, uint32(bi.Bit), bi.Desc)
		}
	}
	for _, c := range cxlshm.Cases {
		fmt.Printf("%s (CXL-SHM)\n", c.Name)
		fmt.Printf("  bug     * bit %#-4x %s\n", uint32(c.Bit), c.Desc)
	}
	fmt.Println("vet-demo (static-analysis example)")
	fmt.Println("  lock-order cycle + unflushed publish, for -vet")
}

// runVet runs only the cxlvet static pre-pass on program and prints the
// findings to out in the stable machine-readable format the golden test
// pins. annotate, when non-nil, rewrites finding messages after the dry
// run (the source front-end adds file:line sites). Exit-code contract:
// 0 clean, 1 findings, 2 the dry run itself failed.
func runVet(cfg cxlmc.Config, program func(*cxlmc.Program), annotate func(*analyze.Report), out, errw io.Writer) int {
	rep, err := analyze.Vet(cfg, program)
	if err != nil {
		fmt.Fprintf(errw, "cxlmc: vet: %v\n", err)
		return 2
	}
	if annotate != nil {
		annotate(rep)
	}
	rep.WriteText(out)
	if len(rep.Findings) > 0 {
		return 1
	}
	return 0
}

// printDiagnostics prints a front-end error — usually a multi-line
// DiagnosticList of positioned file:line problems — one prefixed line
// each, the way a compiler would.
func printDiagnostics(w io.Writer, err error) {
	for _, line := range strings.Split(err.Error(), "\n") {
		fmt.Fprintf(w, "cxlmc: %s\n", line)
	}
}
