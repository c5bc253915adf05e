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
//	      [-wedge-timeout d] [-replay token]
//	      [-mem-budget bytes] [-governor-every N] [-max-events N]
//	      [-reduction on|off] [-prefix-fork on|off] [-race-detect on|off]
//	      [-chaos] [-chaos-seed N]
//	      [-metrics-addr host:port] [-progress d] [-event-log file]
//	      [-metrics-snapshot file]
//	      [-serve addr | -join addr] [-lease-ttl d] [-continue] [-worker-name s]
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
// bug's repro token witnessed, with tracing on.
//
// Resource governance: -mem-budget caps the exploration's heap — over
// budget, pooled state is released, and if that is not enough by the next
// sample (-governor-every executions later) the run stops degraded with
// a valid checkpoint instead of OOMing. -max-events bounds the decision points
// one execution may create, turning per-execution state-space blowup
// into a structured resource-exhausted bug report.
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
// /statusz (JSON run status) and /debug/pprof for the duration of the
// run; -progress prints a one-line status to stderr at the given
// cadence; -event-log streams the structured exploration event trace
// (execution boundaries, decisions, checkpoints, governor and chaos
// activity) as JSON lines to a file; -metrics-snapshot writes the final
// metric values as JSON when the run ends. SIGUSR1 dumps an on-demand
// status report to stderr without stopping the run.
//
// Distributed exploration: -serve addr runs this process as the
// coordinator — it owns the frontier of subtree work units, serves the
// lease API on addr, and (with -checkpoint) persists the frontier so a
// SIGKILL'd coordinator resumes losslessly, its workers carrying on once it
// is back on the same address. -join addr runs a worker that leases units
// from the coordinator one at a time, explores each with its local -workers
// pool as an ordinary resumable run under an execution budget of its own
// choosing (one execution at first, doubled while leases finish well inside
// the TTL and no peer is waiting), and in one call reports the result, returns
// what is left for the coordinator to split among whoever is waiting and takes
// the next unit. -max-execs, -max-time and -metrics-addr span the worker's
// lifetime, not one lease. A lease has a deadline (-lease-ttl) and is named by
// the coordinator's start, the unit and an epoch: units of crashed or wedged
// workers are reclaimed and re-issued, completions of an old epoch or start
// are rejected idempotently, and the run reports exactly the bug set and
// repro tokens a single-process run of the same configuration does.
// -continue keeps exploring after the first bug (any mode). With -chaos, dist
// modes also inject network faults (drops, delays, duplicates, partitions,
// 5xx) into the worker↔coordinator RPCs.
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
// the budget ones (-workers, -max-time, -mem-budget, -governor-every,
// -max-events) are the defaults of jobs whose spec leaves them unset.
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

	cxlmc "repro"
	"repro/internal/analyze"
	"repro/internal/cxlshm"
	"repro/internal/dist"
	"repro/internal/gofront"
	"repro/internal/harness"
	"repro/internal/jobs"
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
		cpInterval = flag.Duration("checkpoint-interval", 0, "checkpoint every interval (0 = default 30s when -checkpoint is set)")
		wedge      = flag.Duration("wedge-timeout", 0, "watchdog for callbacks blocking outside the simulated API: a thread stalled this long is reported within twice it (0 = off)")
		replay     = flag.String("replay", "", "replay a bug's repro token against -bench instead of exploring")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the exploration to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (after the exploration) to this file")
		vetOnly    = flag.Bool("vet", false, "run only the cxlvet static pre-pass and print its findings (exit 1 if any)")
		chaosOn    = flag.Bool("chaos", false, "inject seeded faults into checkpoint I/O and worker scheduling (with -stress: add the resume-under-chaos leg)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the -chaos fault injector")
		stress     = flag.Int("stress", 0, "self-fuzz N seeded random programs (starting at -seed) instead of running a benchmark")

		serveAddr  = flag.String("serve", "", "run as distributed coordinator: own the work-unit frontier and serve the lease API on this address (\":0\" picks a port)")
		joinAddr   = flag.String("join", "", "run as distributed worker: lease work units from the coordinator at this address")
		leaseTTL   = flag.Duration("lease-ttl", 0, "a lease not completed within this long is reclaimed and re-issued; a worker sizes its leases to fit, but one execution must (with -serve; 0 = 5s)")
		workerName = flag.String("worker-name", "", "name this worker reports to the coordinator (with -join; default worker-<pid>)")

		jobServer  = flag.String("jobserver", "", "run as a multi-tenant job server: accept exploration jobs over a REST API on this address (\":0\" picks a port)")
		jobsDir    = flag.String("jobs-dir", "", "durable job store directory — journal plus per-job checkpoints (required with -jobserver)")
		jobWorkers = flag.Int("job-workers", 0, "jobs the server runs concurrently (with -jobserver; 0 = 2)")
		queueDepth = flag.Int("queue-depth", 0, "queued jobs allowed per tenant before submissions get 429 (with -jobserver; 0 = 32)")

		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /statusz and /debug/pprof on this address for the duration of the run (\":0\" picks a port)")
		progressEach = flag.Duration("progress", 0, "print a one-line progress report to stderr at this cadence (0 = off)")
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
	if *jobServer != "" && (*serveAddr != "" || *joinAddr != "" || *replay != "" || *vetOnly || spec.Bench != "" || *checkFile != "") {
		fmt.Fprintln(os.Stderr, "cxlmc: -jobserver is a standalone mode; submit programs as jobs (cxlmc submit) instead of -bench/-check/-serve/-join/-replay/-vet")
		return 2
	}
	if *checkpoint != "" && *seeds > 1 {
		fmt.Fprintln(os.Stderr, "cxlmc: -checkpoint tracks a single exploration; use -seeds 1 (one checkpoint file per seed)")
		return 2
	}
	if *serveAddr != "" && *joinAddr != "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -serve and -join are mutually exclusive (one process is either the coordinator or a worker)")
		return 2
	}
	distMode := *serveAddr != "" || *joinAddr != ""
	if distMode && *seeds > 1 {
		fmt.Fprintln(os.Stderr, "cxlmc: distributed runs explore a single seed; use -seeds 1")
		return 2
	}
	if distMode && *replay != "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -replay is a local single-execution re-run; drop -serve/-join")
		return 2
	}
	if *joinAddr != "" && *checkpoint != "" {
		fmt.Fprintln(os.Stderr, "cxlmc: workers hold no durable state; put -checkpoint on the coordinator")
		return 2
	}
	if *vetOnly && (distMode || *replay != "") {
		fmt.Fprintln(os.Stderr, "cxlmc: -vet is a local static pre-pass; drop -serve/-join/-replay")
		return 2
	}

	// The plumbing flags make the base; the spec lays its knobs over it —
	// as it does over the job server's base for a submitted job.
	cfg := spec.Config(cxlmc.Config{
		CheckpointPath: *checkpoint, CheckpointEvery: *cpEvery, CheckpointInterval: *cpInterval,
		WedgeTimeout: *wedge, ProgressEvery: *progressEach,
	})
	if *chaosOn {
		ccfg := cxlmc.ChaosConfig{
			Seed:          *chaosSeed,
			WriteErrPct:   20,
			ReadErrPct:    10,
			SyncErrPct:    10,
			RenameErrPct:  10,
			ShortWritePct: 50,
			StallPct:      5,
			MaxFaults:     200,
		}
		if distMode {
			// Dist modes extend chaos to the wire: the transport and the
			// coordinator's handlers consult these classes.
			ccfg.NetDropPct = 5
			ccfg.NetDelayPct = 10
			ccfg.NetDupPct = 5
			ccfg.Net5xxPct = 5
			ccfg.NetPartitionPct = 2
		}
		cfg.Chaos = cxlmc.NewChaos(ccfg)
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
		// from (governor defaults, cadences, chaos, metrics); specs arrive
		// over the API.
		return runJobServer(jobs.Config{Addr: *jobServer, Dir: *jobsDir, PoolWorkers: *jobWorkers, QueueDepth: *queueDepth, Base: cfg})
	}

	if *trace {
		cfg.Observer = cxlmc.TraceTo(os.Stdout)
	}
	cfg.MetricsAddr = *metricsAddr
	if *metricsAddr != "" {
		cfg.OnStatusServer = func(addr string) {
			fmt.Fprintf(os.Stderr, "cxlmc: status server on http://%s/ (/metrics /statusz /debug/pprof)\n", addr)
		}
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

	// The one arming step of every mode (run, replay, coordinator, worker;
	// the job server takes it per job), so the config digests they stamp
	// match.
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

	// SIGUSR1 asks for an on-demand status dump: the engine snapshots its
	// progress at the next monitor wakeup and the run continues untouched.
	var usr1Pending atomic.Bool
	statusReq := make(chan struct{}, 1)
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	defer signal.Stop(usr1)
	go func() {
		for range usr1 {
			usr1Pending.Store(true)
			select {
			case statusReq <- struct{}{}:
			default:
			}
		}
	}()
	cfg.StatusRequests = statusReq
	cfg.OnProgress = func(p cxlmc.Progress) {
		if usr1Pending.Swap(false) {
			fmt.Fprintf(os.Stderr, "cxlmc: status  %s\n", p)
			for _, w := range p.Workers {
				fmt.Fprintf(os.Stderr, "cxlmc:   worker %d %-4s execs=%d depth=%d units=%d\n",
					w.ID, w.State, w.Executions, w.Depth, w.Units)
			}
			return
		}
		if *progressEach > 0 {
			fmt.Fprintf(os.Stderr, "cxlmc: progress %s\n", p)
		}
	}

	// printResult renders one run's outcome, returning whether it found
	// bugs; shared by local, coordinator and worker modes so their output
	// is comparable line for line.
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
		if res.Degraded {
			fmt.Printf("degraded    memory governor acted (budget %d bytes)\n", spec.MemBudgetBytes)
		}
		if res.CheckpointErrors > 0 {
			fmt.Printf("cp-errors   %d periodic checkpoint write(s) failed and were tolerated\n", res.CheckpointErrors)
		}
		if distMode || res.LeaseReclaims > 0 || res.RPCRetries > 0 || res.StaleCompletions > 0 {
			fmt.Printf("dist        reclaims=%d rpc-retries=%d stale-completions=%d\n",
				res.LeaseReclaims, res.RPCRetries, res.StaleCompletions)
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

	if *serveAddr != "" {
		// Coordinator: own the frontier, serve the lease API, persist the
		// checkpoint — all of it read off the one configuration.
		coord, err := dist.StartCoordinator(dist.CoordinatorConfig{
			Check: cfg, Program: program, Addr: *serveAddr, LeaseTTL: *leaseTTL,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", strings.TrimPrefix(err.Error(), "dist: "))
			return 1
		}
		fmt.Fprintf(os.Stderr, "cxlmc: coordinator serving the frontier on %s (workers: %s -join %s)\n",
			coord.Addr(), reproFlags, coord.Addr())
		res, err := coord.Wait(nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", strings.TrimPrefix(err.Error(), "dist: "))
			return 1
		}
		if printResult(res, spec.Seed) {
			return 1
		}
		return 0
	}

	if *joinAddr != "" {
		res, err := dist.RunWorker(dist.WorkerConfig{
			Check: cfg, Program: program, Coordinator: *joinAddr, Name: *workerName,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", strings.TrimPrefix(err.Error(), "dist: "))
			return 1
		}
		fmt.Println("worker      local view below; the coordinator reports the authoritative global result")
		if printResult(res, spec.Seed) {
			return 1
		}
		return 0
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
