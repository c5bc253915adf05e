package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	cxlmc "repro"
	"repro/internal/jobs"
)

// runJobServer runs the checking-as-a-service mode: a long-lived,
// multi-tenant job server on addr, journaling every job to dir so a
// kill -9 and restart lose nothing. SIGTERM/SIGINT drains (stop
// accepting, checkpoint running jobs, persist the queue) and exits 0; a
// second signal force-exits with code 3.
func runJobServer(addr, dir string, poolWorkers, queueDepth int, base cxlmc.Config, eventTrace io.Writer) int {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -jobserver requires -jobs-dir (the durable job store)")
		return 2
	}
	srv, err := jobs.Start(jobs.Config{
		Addr:               addr,
		Dir:                dir,
		PoolWorkers:        poolWorkers,
		QueueDepth:         queueDepth,
		MaxJobTime:         base.MaxTime,
		DefaultMemBudget:   base.MemBudgetBytes,
		JobWorkers:         base.Workers,
		WedgeTimeout:       base.WedgeTimeout,
		CheckpointEvery:    base.CheckpointEvery,
		CheckpointInterval: base.CheckpointInterval,
		ProgressEvery:      base.ProgressEvery,
		Chaos:              base.Chaos,
		Obs:                base.Obs,
		EventTrace:         eventTrace,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "cxlmc: job server on %s (POST /jobs, GET /jobs/{id}, /metrics, /statusz)\n", srv.Addr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "cxlmc: %v — draining: refusing submissions, checkpointing running jobs (again to force-exit)\n", s)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "cxlmc: %v again — forced exit\n", s)
		os.Exit(3)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "cxlmc: drain: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "cxlmc: drained clean")
	return 0
}

// runJobVerb dispatches the job-client verbs: submit, status, cancel,
// wait, jobs (list). Each talks to a running -jobserver over its REST
// API.
func runJobVerb(verb string, args []string) int {
	fs := flag.NewFlagSet(verb, flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8373", "job server address")
	var (
		// submit flags
		tenant     = fs.String("tenant", "", "tenant name (fairness and quota key)")
		bench      = fs.String("bench", "", "benchmark name (see cxlmc -list)")
		keys       = fs.Int("keys", 0, "total keys inserted")
		insWorkers = fs.Int("insert-workers", 0, "insert workers per machine")
		stride     = fs.Int("stride", 0, "key stride")
		bugsFlag   = fs.String("bugs", "0", "seeded-bug bitmask")
		genSeed    = fs.Int64("gen-seed", 0, "submit a harness-generated program with this seed (with -gen)")
		gen        = fs.Bool("gen", false, "submit a harness-generated program instead of -bench")
		source     = fs.String("source", "", "submit this Go source file (gofront/cxl API) as the job's program instead of -bench")
		entry      = fs.String("entry", "", "entry function in the -source file (default Program)")
		seed       = fs.Int64("seed", 0, "schedule seed")
		gpf        = fs.Bool("gpf", false, "assume global persistent flush always succeeds")
		poison     = fs.Bool("poison", false, "enable CXL memory poisoning")
		workers    = fs.Int("workers", 0, "exploration workers for this job (0 = server default)")
		maxExecs   = fs.Int("max-execs", 0, "cap on explored executions")
		maxTime    = fs.Duration("max-time", 0, "wall-clock budget for the job")
		memBudget  = fs.Uint64("mem-budget", 0, "soft heap budget in bytes for this job")
		govEvery   = fs.Int("governor-every", 0, "check the budget governor every N executions")
		maxEvents  = fs.Int("max-events", 0, "cap on decision points per execution")
		contBug    = fs.Bool("continue", false, "keep exploring after the first bug")
		doWait     = fs.Bool("wait", false, "block until the submitted job is terminal")
		// wait / submit -wait flags
		poll    = fs.Duration("poll", 200*time.Millisecond, "status poll interval")
		timeout = fs.Duration("timeout", time.Hour, "give up waiting after this long")
	)
	var reduction, prefixFork, raceDetect switchFlag
	fs.Var(&reduction, "reduction", "state-space reduction (on|off; default = server default)")
	fs.Var(&prefixFork, "prefix-fork", "prefix-fork replay (on|off; default = server default)")
	fs.Var(&raceDetect, "race-detect", "race detection (on|off; default = server default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	client := jobs.NewClient(*addr)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	// printStatus renders one status as indented JSON on stdout — the
	// same shape GET /jobs/{id} returns, so scripts can treat the CLI
	// and the raw API interchangeably.
	printStatus := func(st jobs.Status) {
		data, _ := json.MarshalIndent(st, "", "  ")
		fmt.Println(string(data))
	}
	// terminalCode maps a terminal state to the exit-code contract:
	// done 0, anything else 1.
	terminalCode := func(st jobs.Status) int {
		if st.State == jobs.StateDone {
			return 0
		}
		fmt.Fprintf(os.Stderr, "cxlmc: job %s %s%s\n", st.ID, st.State, errSuffix(st.Error))
		return 1
	}

	switch verb {
	case "submit":
		bugs, err := strconv.ParseUint(*bugsFlag, 0, 32)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: bad -bugs %q: %v\n", *bugsFlag, err)
			return 2
		}
		spec := jobs.Spec{
			Tenant: *tenant,
			Bench:  *bench, Keys: *keys, InsertWorkers: *insWorkers,
			Stride: *stride, Bugs: uint32(bugs),
			Seed: *seed, GPF: *gpf, Poison: *poison, Workers: *workers,
			MaxExecutions: *maxExecs, MaxTime: jobs.Duration(*maxTime),
			MemBudgetBytes: *memBudget, GovernorEvery: *govEvery,
			MaxEventsPerExec: *maxEvents,
			ContinueAfterBug: *contBug,
			Reduction:        cxlmc.Switch(reduction), PrefixFork: cxlmc.Switch(prefixFork), RaceDetect: cxlmc.Switch(raceDetect),
		}
		if *gen {
			spec.Bench = ""
			spec.Gen = &jobs.GenSpec{Seed: *genSeed}
		}
		if *source != "" {
			src, err := os.ReadFile(*source)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cxlmc: -source: %v\n", err)
				return 2
			}
			spec.Bench = ""
			spec.Source = string(src)
			spec.SourceName = filepath.Base(*source)
			spec.Entry = *entry
		}
		st, err := client.Submit(ctx, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
			return 1
		}
		if !*doWait {
			fmt.Println(st.ID)
			return 0
		}
		fin, err := client.Wait(ctx, st.ID, *poll)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
			return 1
		}
		printStatus(fin)
		return terminalCode(fin)

	case "status":
		id := fs.Arg(0)
		if id == "" {
			fmt.Fprintf(os.Stderr, "cxlmc: usage: cxlmc status [-addr host:port] JOB-ID\n")
			return 2
		}
		st, err := client.Status(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
			return 1
		}
		printStatus(st)
		return 0

	case "cancel":
		id := fs.Arg(0)
		if id == "" {
			fmt.Fprintf(os.Stderr, "cxlmc: usage: cxlmc cancel [-addr host:port] JOB-ID\n")
			return 2
		}
		st, err := client.Cancel(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
			return 1
		}
		fmt.Printf("%s %s\n", st.ID, st.State)
		return 0

	case "wait":
		id := fs.Arg(0)
		if id == "" {
			fmt.Fprintf(os.Stderr, "cxlmc: usage: cxlmc wait [-addr host:port] [-poll d] [-timeout d] JOB-ID\n")
			return 2
		}
		fin, err := client.Wait(ctx, id, *poll)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
			return 1
		}
		printStatus(fin)
		return terminalCode(fin)

	case "jobs":
		list, err := client.List(ctx, *tenant)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
			return 1
		}
		for _, st := range list {
			fmt.Printf("%s\t%s\t%s%s\n", st.ID, st.Tenant, st.State, errSuffix(st.Error))
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "cxlmc: unknown verb %q\n", verb)
	return 2
}

func errSuffix(msg string) string {
	if msg == "" {
		return ""
	}
	return ": " + msg
}
