// Command cxlbench is the repository's standing benchmark; see package
// bench and bench/README.md.
//
//	go run ./bench/cmd/cxlbench                      # six workloads, full op counts
//	go run ./bench/cmd/cxlbench -workload table5     # one workload; last line is its JSON result
//	go run ./bench/cmd/cxlbench -traced              # the per-layer ledger and bench/out/trace.json
//	go run ./bench/cmd/cxlbench -compare a.json b.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/bench"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: table5, litmus, source_cceh, bwtree_par, dist_2w, jobs_api or all")
		seed     = flag.Int64("seed", bench.DefaultSeed, "seed of the generated inputs (the litmus corpus)")
		seconds  = flag.Int("seconds", 0, "bound each workload's timed ops to this many seconds (0 = the full op counts)")
		trace    = flag.Int("trace", 0, "1 = the traced run: the per-layer ledger (same as -traced)")
		traced   = flag.Bool("traced", false, "run the shortened traced run and print the per-layer ledger")
		out      = flag.String("out", "", "result file (default bench/out/result.json, or ledger.json when traced)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments against the bounds in BENCHMARK.json")
		child    = flag.String("child", "", "internal: run one workload's child process")
	)
	flag.Parse()
	if *child != "" {
		if err := bench.ChildMain(os.Stdout, *child); err != nil {
			fatal(err)
		}
		return
	}
	root, err := bench.FindRoot()
	if err != nil {
		fatal(err)
	}
	ok := false
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: cxlbench -compare a.json b.json"))
		}
		ok, err = bench.Compare(os.Stdout, root, flag.Arg(0), flag.Arg(1))
	} else {
		exe, xerr := os.Executable()
		if xerr != nil {
			fatal(xerr)
		}
		// An interrupt cancels the context, which kills the running
		// child; the deferred clean-up in Run removes its work directory.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		ok, err = bench.Run(ctx, os.Stdout, bench.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds,
			Traced: *traced || *trace == 1, Out: *out, Root: root, Exe: exe,
		})
		stop()
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxlbench:", err)
	os.Exit(1)
}
