package core_test

// The checker held to internal/oracle, an independent statement of what a
// small program's observer may load: the paper's Figures 2–4 as a pinned
// catalog, and the exhaustive small scope progir.Corpus enumerates.

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/progir"
)

var oracleK = flag.Int("oracle-k", 2, "ops per writer in TestOracleProperties's corpus")

// oracleConfigs are the configurations the checker must agree with the
// oracle under. One that sets no Workers runs serially.
var oracleConfigs = []struct {
	name string
	cfg  core.Config
}{
	{"default", core.Config{}},
	{"reduction-off", core.Config{Reduction: core.SwitchOff}},
	{"workers-2", core.Config{Workers: 2}},
	{"workers-4", core.Config{Workers: 4}},
	{"eager-read-set", core.WithEagerReadSet(core.Config{})},
}

const catalogGolden = "../oracle/testdata/catalog.golden"

// The paper's figures: cells 0 and 1 are y and x, on one cache line.
var catalog = []struct {
	name string
	p    *progir.Program
}{
	// Figure 2: A stores y=1 x=2, clflushes y, then stores y=3 x=4 y=5 x=6.
	{"fig2", &progir.Program{Cells: 2, Lines: []int{0, 0}, Machines: [][][]progir.Op{
		{{store(0, 1), store(1, 2), {Code: progir.Flush}, {Code: progir.SFence},
			store(0, 3), store(1, 4), store(0, 5), store(1, 6)}}}}},
	// Figure 3: Figure 2's stores without the clflush; the observer loads
	// y twice, then x.
	{"fig3", &progir.Program{Cells: 2, Lines: []int{0, 0}, Observe: []int{0, 0, 1}, Machines: [][][]progir.Op{
		{{store(0, 1), store(1, 2), store(0, 3), store(1, 4), store(0, 5), store(1, 6)}}}}},
	// Figure 4: A stores y=1 x=2 y=3 x=4; B joins A, stores y=5 and
	// clflushes it.
	{"fig4", &progir.Program{Cells: 2, Lines: []int{0, 0}, Machines: [][][]progir.Op{
		{{store(0, 1), store(1, 2), store(0, 3), store(1, 4)}},
		{{{Code: progir.Join}, store(0, 5), {Code: progir.Flush}, {Code: progir.SFence}}}}}},
}

func store(cell int, val uint64) progir.Op {
	return progir.Op{Code: progir.Store, Cell: cell, Size: 8, Val: val}
}

// TestCatalog: the oracle's outcome set of each figure is the pinned one
// (rewrite the golden with -update), and the checker's equals it under
// every configuration. EXPERIMENTS.md reads the paper's statements off
// these sets.
func TestCatalog(t *testing.T) {
	var got strings.Builder
	for _, e := range catalog {
		want, err := oracle.Outcomes(e.p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s: %s\n", e.name, strings.Join(slices.Sorted(maps.Keys(want)), " "))
		for _, c := range oracleConfigs {
			set, _, err := harness.Outcomes(c.cfg, e.p)
			if err != nil {
				t.Fatalf("%s under %s: %v", e.name, c.name, err)
			}
			if !maps.Equal(set, want) {
				t.Errorf("%s under %s: the checker's outcomes %v, the oracle's %v", e.name, c.name, set, want)
			}
		}
	}
	if *update {
		if err := os.WriteFile(catalogGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(catalogGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(golden) {
		t.Errorf("the oracle's catalog moved:\n%s\nwant (%s):\n%s", got.String(), catalogGolden, golden)
	}
}

// TestOracleProperties runs the checker and the oracle over the corpus of
// -oracle-k ops per writer (2 here, 3 in CI), under every configuration:
//
//   - (S) every checker outcome is an oracle outcome, on every program;
//   - (C) the two sets are equal, except where two unjoined writers store
//     to one line: there the order of their stores is the schedule's, one
//     per seed (§3.2), and a set the checker falls short of is logged.
//
// Race detection is off: two unjoined writers storing to one cell race,
// and a race report would end the execution before the observer loads.
func TestOracleProperties(t *testing.T) {
	for _, c := range oracleConfigs {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := c.cfg
			cfg.RaceDetect = core.SwitchOff
			cfg.Workers = max(cfg.Workers, 1)
			start := time.Now()
			var programs, included, equal, shared, short int
			for p := range progir.Corpus(*oracleK) {
				programs++
				want, err := oracle.Outcomes(p)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := harness.Outcomes(cfg, p)
				if err != nil {
					t.Fatalf("%s: %v", describe(p), err)
				}
				for o := range got {
					if !want[o] {
						t.Fatalf("(S) %s: the checker's outcome %s is not the oracle's", describe(p), o)
					}
				}
				included++
				isShared := sharedLine(p)
				if isShared {
					shared++
				}
				switch {
				case maps.Equal(got, want):
					equal++
				case isShared:
					if short++; short <= 20 {
						var missed []string
						for o := range want {
							if !got[o] {
								missed = append(missed, o)
							}
						}
						slices.Sort(missed)
						t.Logf("shortfall %s: misses %s", describe(p), strings.Join(missed, " "))
					}
				default:
					t.Errorf("(C) %s: the checker's outcomes %v, the oracle's %v", describe(p), got, want)
				}
			}
			t.Logf("k=%d: %d programs, %d included (S), %d equal (C); %d of the %d shared-line programs fall short; %v",
				*oracleK, programs, included, equal, short, shared, time.Since(start).Round(time.Millisecond))
		})
	}
}

// sharedLine reports whether p's writers are unjoined and both store to
// one line.
func sharedLine(p *progir.Program) bool {
	lines := map[int]int{} // line → the writers storing to it, as bits
	for m, threads := range p.Machines {
		for _, op := range threads[0] {
			switch {
			case op.Code == progir.Join:
				return false
			case op.Code == progir.Store:
				lines[p.Line(op.Cell)] |= 1 << m
			}
		}
	}
	return slices.Contains(slices.Collect(maps.Values(lines)), 3)
}

// describe renders a corpus program as "A: … ∥ B: …", cells named x and y.
func describe(p *progir.Program) string {
	var b strings.Builder
	for m, threads := range p.Machines {
		if m > 0 {
			b.WriteString(" ∥")
		}
		fmt.Fprintf(&b, " %c:", 'A'+m)
		for _, op := range threads[0] {
			cell := "xy"[op.Cell : op.Cell+1]
			switch op.Code {
			case progir.Store:
				fmt.Fprintf(&b, " %s=%d", cell, op.Val)
			case progir.Flush:
				fmt.Fprintf(&b, " clflush(%s)", cell)
			case progir.FlushOpt:
				fmt.Fprintf(&b, " clflushopt(%s)", cell)
			case progir.SFence:
				b.WriteString(" sfence")
			case progir.MFence:
				b.WriteString(" mfence")
			case progir.Join:
				fmt.Fprintf(&b, " join(%c)", 'A'+op.Machine)
			}
		}
	}
	if p.Lines != nil {
		b.WriteString(" [one line]")
	}
	return b.String()[1:]
}
