package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// runJobServer runs the checking-as-a-service mode: a long-lived,
// multi-tenant job server on cfg.Addr, journaling every job to cfg.Dir so
// a kill -9 and restart lose nothing. SIGTERM/SIGINT drains (stop
// accepting, checkpoint running jobs, persist the queue) and exits 0; a
// second signal force-exits with code 3.
func runJobServer(cfg jobs.Config) int {
	if cfg.Dir == "" {
		fmt.Fprintln(os.Stderr, "cxlmc: -jobserver requires -jobs-dir (the durable job store)")
		return 2
	}
	cfg.Logf = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	srv, err := jobs.Start(cfg)
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
	// The job's program and knobs are the flags of the flag-driven run,
	// declared once (and meaning the same when absent); the rest is the
	// client's own.
	spec := cliSpec()
	spec.BindFlags(fs)
	var (
		// submit flags
		tenant  = fs.String("tenant", "", "tenant name (fairness and quota key)")
		genSeed = fs.Int64("gen-seed", 0, "submit a harness-generated program with this seed (with -gen)")
		gen     = fs.Bool("gen", false, "submit a harness-generated program instead of -bench")
		source  = fs.String("source", "", "submit this Go source file (gofront/cxl API) as the job's program instead of -bench")
		doWait  = fs.Bool("wait", false, "block until the submitted job is terminal")
		// wait / submit -wait flags
		timeout = fs.Duration("timeout", time.Hour, "give up waiting after this long")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if verb == "status" || verb == "jobs" {
		// A read is made again until it is answered, which rides through a
		// restarting server; one that is not there at all is reported soon.
		*timeout = min(*timeout, 10*time.Second)
	}
	client := jobs.NewClient(*addr)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	id := fs.Arg(0)
	if id == "" && (verb == "status" || verb == "cancel" || verb == "wait") {
		fmt.Fprintf(os.Stderr, "cxlmc: usage: cxlmc %s [-addr host:port] [-timeout d] JOB-ID\n", verb)
		return 2
	}
	var (
		st   jobs.Status
		list []jobs.Status
		err  error
	)
	switch verb {
	case "submit":
		spec.Tenant = *tenant
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
		}
		if st, err = client.Submit(ctx, spec); err == nil && *doWait {
			st, err = client.Wait(ctx, st.ID, 0)
		}
	case "status":
		st, err = client.Status(ctx, id)
	case "cancel":
		st, err = client.Cancel(ctx, id)
	case "wait":
		st, err = client.Wait(ctx, id, 0)
	case "jobs":
		list, err = client.List(ctx, *tenant)
	default:
		fmt.Fprintf(os.Stderr, "cxlmc: unknown verb %q\n", verb)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxlmc: %v\n", err)
		return 1
	}

	switch {
	case verb == "jobs":
		for _, st := range list {
			fmt.Printf("%s\t%s\t%s%s\n", st.ID, st.Tenant, st.State, jobs.ErrSuffix(st.Error))
		}
	case verb == "cancel":
		fmt.Printf("%s %s\n", st.ID, st.State)
	case verb == "submit" && !*doWait:
		fmt.Println(st.ID)
	default:
		// One status as indented JSON on stdout — the shape GET /jobs/{id}
		// returns, so scripts can treat the CLI and the raw API
		// interchangeably. A wait's exit code is the terminal state's: done 0,
		// anything else 1.
		data, _ := json.MarshalIndent(st, "", "  ")
		fmt.Println(string(data))
		if verb != "status" && st.State != jobs.StateDone {
			fmt.Fprintf(os.Stderr, "cxlmc: job %s %s%s\n", st.ID, st.State, jobs.ErrSuffix(st.Error))
			return 1
		}
	}
	return 0
}
