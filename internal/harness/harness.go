// Package harness drives the paper's evaluation (§6): it runs every
// benchmark under the model checker and regenerates the rows of Table 3
// (RECIPE bugs), Table 4 (CXL-SHM bugs) and Table 5 (exploration
// statistics with and without GPF mode).
package harness

import (
	"fmt"
	"io"
	"time"

	cxlmc "repro"
	"repro/internal/analyze"
	"repro/internal/cxlshm"
	"repro/internal/recipe"
	"repro/internal/recipe/cceh"
	"repro/internal/recipe/fastfair"
	"repro/internal/recipe/part"
	"repro/internal/recipe/pbwtree"
	"repro/internal/recipe/pclht"
	"repro/internal/recipe/pmasstree"
)

// Benchmarks lists the six RECIPE benchmarks in the paper's Table 5
// order.
var Benchmarks = []recipe.Benchmark{
	cceh.Benchmark,
	fastfair.Benchmark,
	part.Benchmark,
	pbwtree.Benchmark,
	pclht.Benchmark,
	pmasstree.Benchmark,
}

// ByName returns the named RECIPE benchmark.
func ByName(name string) (recipe.Benchmark, bool) {
	for _, b := range Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return recipe.Benchmark{}, false
}

// ProgramByName resolves a benchmark name to its program constructor:
// first the six RECIPE benchmarks (rc shapes the workload and seeds its
// bugs), then the CXL-SHM cases (which take only the bug mask), then
// vet-demo, the static-analysis example (which takes nothing). It is
// the single name→program mapping the CLI and the job server share, so
// a job submitted by name runs exactly the program `cxlmc -bench` does.
func ProgramByName(name string, rc recipe.Config) (func(*cxlmc.Program), bool) {
	if b, ok := ByName(name); ok {
		return recipe.Program(b, rc), true
	}
	for _, c := range cxlshm.Cases {
		if c.Name == name {
			return c.Program(cxlshm.Bug(rc.Bugs)), true
		}
	}
	if name == "vet-demo" {
		return analyze.DemoProgram, true
	}
	return nil, false
}

// Table5Config is the paper's performance configuration (§6.3): two
// processes of two threads each (one worker + one checker per machine)
// and a total of 10 keys.
func Table5Config() recipe.Config { return recipe.Config{Keys: 10, Workers: 1} }

// DefaultMaxExecutions bounds bug hunts so a missing detection fails
// fast instead of hanging.
const DefaultMaxExecutions = 300000

// BugHunt runs one seeded bug's detection configuration and returns the
// result.
func BugHunt(b recipe.Benchmark, bi recipe.BugInfo, base cxlmc.Config) (*cxlmc.Result, error) {
	cfg := recipe.Config{Keys: bi.Keys, Workers: bi.Workers, Stride: bi.Stride, Bugs: bi.Bit}
	if base.MaxExecutions == 0 {
		base.MaxExecutions = DefaultMaxExecutions
	}
	return cxlmc.Run(base, recipe.Program(b, cfg))
}

// HuntDiagnosis renders a one-line post-mortem for a bug hunt that
// stopped without the expected detection: how much of the space was
// explored and why the hunt ended. Tests print it instead of a bare
// "not detected" so a miss is immediately attributable to an exhausted
// budget, an interrupted run, or a genuinely clean exploration.
func HuntDiagnosis(res *cxlmc.Result) string {
	why := "execution budget exhausted"
	switch {
	case res.Complete:
		why = "state space explored completely — the bug is not reachable under this seed"
	case res.Interrupted:
		why = "run was interrupted before the budget"
	}
	return fmt.Sprintf("%d executions (%d fpoints, %d rfpoints) in %v, seed %d: %s",
		res.Executions, res.FailurePoints, res.ReadFromPoints, res.Elapsed, res.Seed, why)
}

// Table3Row is one row of the Table 3 reproduction: a seeded RECIPE bug
// and whether the checker found it.
type Table3Row struct {
	Num       int
	Benchmark string
	Desc      string
	New       bool
	Detected  bool
	Kind      string
	Execs     int
	Elapsed   time.Duration
}

// RunTable3 hunts every Table 3 bug and reports a row per bug.
func RunTable3(base cxlmc.Config) ([]Table3Row, error) {
	var rows []Table3Row
	for _, b := range Benchmarks {
		for _, bi := range b.Bugs {
			res, err := BugHunt(b, bi, base)
			if err != nil {
				return nil, fmt.Errorf("%s bug %d: %w", b.Name, bi.Table, err)
			}
			row := Table3Row{
				Num:       bi.Table,
				Benchmark: b.Name,
				Desc:      bi.Desc,
				New:       bi.New,
				Detected:  res.Buggy(),
				Execs:     res.Executions,
				Elapsed:   res.Elapsed,
			}
			if res.Buggy() {
				row.Kind = res.Bugs[0].Kind.String()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Table4Row is one row of the Table 4 reproduction.
type Table4Row struct {
	Num      int
	Name     string
	Desc     string
	Detected bool
	Kind     string
	Execs    int
	Elapsed  time.Duration
}

// RunTable4 hunts the CXL-SHM bugs.
func RunTable4(base cxlmc.Config) ([]Table4Row, error) {
	if base.MaxExecutions == 0 {
		base.MaxExecutions = DefaultMaxExecutions
	}
	var rows []Table4Row
	for i, c := range cxlshm.Cases {
		res, err := cxlmc.Run(base, c.Program(c.Bit))
		if err != nil {
			return nil, fmt.Errorf("cxlshm %s: %w", c.Name, err)
		}
		row := Table4Row{Num: i + 1, Name: c.Name, Desc: c.Desc, Detected: res.Buggy(),
			Execs: res.Executions, Elapsed: res.Elapsed}
		if res.Buggy() {
			row.Kind = res.Bugs[0].Kind.String()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table5Row is one row of the Table 5 reproduction: exploration
// statistics for a fully-fixed benchmark.
type Table5Row struct {
	Name    string
	GPF     bool
	Execs   int
	Elapsed time.Duration
	FPoints int
	// RFPoints is not in the paper's table but explains the Execs vs
	// FPoints gap (§6.3's P-BwTree discussion).
	RFPoints int
	Complete bool
	Bugs     []cxlmc.Bug
}

// runTable5Row explores one fixed benchmark to completion.
func runTable5Row(b recipe.Benchmark, gpf bool, seed int64, reduction cxlmc.Switch) (Table5Row, error) {
	res, err := cxlmc.Run(
		cxlmc.Config{GPF: gpf, Seed: seed, MaxExecutions: 2_000_000, Reduction: reduction},
		recipe.Program(b, Table5Config()),
	)
	if err != nil {
		return Table5Row{}, err
	}
	return Table5Row{
		Name: b.Name, GPF: gpf,
		Execs: res.Executions, Elapsed: res.Elapsed, FPoints: res.FailurePoints,
		RFPoints: res.ReadFromPoints, Complete: res.Complete, Bugs: res.Bugs,
	}, nil
}

// RunTable5Reduction explores every fixed benchmark, without and with GPF
// mode, mirroring the paper's Table 5, with the state-space-reduction knob
// set to reduction. SwitchDefault is the checker's
// default; SwitchOff reproduces the unreduced exhaustive exploration — the
// apples-to-apples comparison against the paper's reported #Execs, which
// predate any reduction.
func RunTable5Reduction(seed int64, reduction cxlmc.Switch) ([]Table5Row, error) {
	var rows []Table5Row
	for _, gpf := range []bool{false, true} {
		for _, b := range Benchmarks {
			row, err := runTable5Row(b, gpf, seed, reduction)
			if err != nil {
				return nil, fmt.Errorf("%s (gpf=%v): %w", b.Name, gpf, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintTable3 renders Table 3 rows like the paper's table.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-3s %-12s %-45s %-9s %s\n", "#", "Benchmark", "Type of Bug", "Detected", "(kind, #execs, time)")
	for _, r := range rows {
		name := r.Benchmark
		if r.New {
			name += "*"
		}
		det := "NO"
		if r.Detected {
			det = "yes"
		}
		fmt.Fprintf(w, "%-3d %-12s %-45s %-9s (%s, %d, %v)\n",
			r.Num, name, r.Desc, det, r.Kind, r.Execs, r.Elapsed.Round(time.Millisecond))
	}
}

// PrintTable4 renders Table 4 rows.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "%-3s %-12s %-30s %-9s %s\n", "#", "Benchmark", "Type of Bug", "Detected", "(kind, #execs, time)")
	for _, r := range rows {
		det := "NO"
		if r.Detected {
			det = "yes"
		}
		fmt.Fprintf(w, "%-3d %-12s %-30s %-9s (%s, %d, %v)\n",
			r.Num, r.Name+"*", r.Desc, det, r.Kind, r.Execs, r.Elapsed.Round(time.Millisecond))
	}
}

// PrintTable5 renders Table 5 rows like the paper's table.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "%-16s %8s %10s %9s %9s\n", "Benchmarks", "#Execs", "Time", "#FPoints", "#RFPoints")
	for _, r := range rows {
		name := r.Name
		if r.GPF {
			name += "_GPF"
		}
		fmt.Fprintf(w, "%-16s %8d %10v %9d %9d\n",
			name, r.Execs, r.Elapsed.Round(10*time.Millisecond), r.FPoints, r.RFPoints)
	}
}
