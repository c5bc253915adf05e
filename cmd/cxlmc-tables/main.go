// Command cxlmc-tables regenerates the paper's evaluation tables:
//
//	cxlmc-tables -table 3    # Table 3: RECIPE bug detection
//	cxlmc-tables -table 4    # Table 4: CXL-SHM bug detection
//	cxlmc-tables -table 5    # Table 5: #Execs / Time / #FPoints ± GPF
//	cxlmc-tables -table all  # everything
//
// Absolute times depend on the host; the shapes (which bugs are found,
// how exploration sizes compare, the P-BwTree GPF anomaly) are the
// reproduction targets — see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"

	cxlmc "repro"
	"repro/internal/harness"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 3, 4, 5 or all")
	seed := flag.Int64("seed", 0, "schedule seed")
	reduction := flag.String("reduction", "on", "state-space reduction for Table 5: on|off (off reproduces the unreduced exploration the paper reports)")
	flag.Parse()
	redSw := cxlmc.SwitchOn
	switch *reduction {
	case "on", "":
	case "off":
		redSw = cxlmc.SwitchOff
	default:
		fatal(fmt.Errorf("-reduction must be on or off, got %q", *reduction))
	}

	ok := true
	if *table == "3" || *table == "all" {
		fmt.Println("== Table 3: bugs found in RECIPE ==")
		rows, err := harness.RunTable3(cxlmc.Config{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		harness.PrintTable3(os.Stdout, rows)
		for _, r := range rows {
			ok = ok && r.Detected
		}
		fmt.Println()
	}
	if *table == "4" || *table == "all" {
		fmt.Println("== Table 4: bugs found in CXL-SHM benchmarks ==")
		rows, err := harness.RunTable4(cxlmc.Config{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		harness.PrintTable4(os.Stdout, rows)
		for _, r := range rows {
			ok = ok && r.Detected
		}
		fmt.Println()
	}
	if *table == "5" || *table == "all" {
		fmt.Println("== Table 5: performance results (fixed benchmarks, 2 machines × 2 threads, 10 keys) ==")
		rows, err := harness.RunTable5Reduction(*seed, redSw)
		if err != nil {
			fatal(err)
		}
		harness.PrintTable5(os.Stdout, rows)
		for _, r := range rows {
			ok = ok && r.Complete && len(r.Bugs) == 0
		}
		fmt.Println()
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "cxlmc-tables: some rows deviated from the expected outcome")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cxlmc-tables: %v\n", err)
	os.Exit(1)
}
