package harness

import (
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
)

// TestRecipeAllocBudget is the tier-1 ceiling on what an exploration of
// each Table 5 row allocates on a warm Run: cxlbench's table5 workload
// (Table5Config, armed by the cxlvet pre-pass, GPF off and on). Each
// ceiling is ~10 % over the row's count. The RECIPE workload once rebuilt its names
// and partitions every execution and boxed the arguments of every passing
// assertion, and the structures grew their scratch by append: 46 552
// allocations a round, 53 an execution. With those hoisted, guarded and on
// the stack it makes 6 736, most of them the set-up's thread closures and
// the index each execution lays out. The race detector's sync.Pool drops a
// quarter of what is put back at random, and a dropped checker is rebuilt
// cold, so under -race the shape is checked the same but against looser
// race ceilings.
func TestRecipeAllocBudget(t *testing.T) {
	rows := []struct {
		name         string
		gpf          bool
		execs        int
		steps        int64
		budget, race float64
	}{
		{"CCEH", false, 48, 12695, 415, 1200},
		{"FAST_FAIR", false, 96, 50013, 835, 2300},
		{"P-ART", false, 74, 61347, 665, 1900},
		{"P-BwTree", false, 246, 152601, 1780, 4900},
		{"P-CLHT", false, 50, 12039, 425, 1200},
		{"P-MassTree", false, 93, 43713, 810, 2300},
		{"CCEH", true, 27, 6730, 275, 800},
		{"FAST_FAIR", true, 41, 20189, 410, 1200},
		{"P-ART", true, 52, 43222, 495, 1400},
		{"P-BwTree", true, 77, 47023, 630, 1800},
		{"P-CLHT", true, 29, 6458, 290, 800},
		{"P-MassTree", true, 39, 17855, 400, 1100},
	}
	armed := map[string]cxlmc.Config{}
	for _, r := range rows {
		b, ok := ByName(r.name)
		if !ok {
			t.Fatalf("no benchmark %s", r.name)
		}
		prog := recipe.Program(b, Table5Config())
		cfg, ok := armed[r.name]
		if !ok {
			var err error
			if cfg, err = cxlmc.Arm(cxlmc.Config{Workers: 1, RaceDetect: cxlmc.SwitchOn}, prog); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			armed[r.name] = cfg
		}
		cfg.GPF = r.gpf
		var res *cxlmc.Result
		run := func() {
			var err error
			if res, err = cxlmc.Run(cfg, prog); err != nil {
				t.Fatalf("Run(%s): %v", r.name, err)
			}
		}
		run() // warm the checker and the program's shared tables
		allocs := testing.AllocsPerRun(3, run)
		if res.Executions != r.execs || res.Steps != r.steps || len(res.Bugs) != 0 {
			t.Fatalf("%s GPF=%v: explored %d executions, %d steps, %d bugs; want %d, %d, 0",
				r.name, r.gpf, res.Executions, res.Steps, len(res.Bugs), r.execs, r.steps)
		}
		budget := r.budget
		if raceEnabled {
			budget = r.race
		}
		if allocs > budget {
			t.Errorf("one %s GPF=%v exploration made %.0f allocations, budget %.0f", r.name, r.gpf, allocs, budget)
		}
	}
}
