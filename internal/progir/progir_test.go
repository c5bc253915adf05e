package progir

import (
	"reflect"
	"testing"
)

// TestGenerateIsDeterministicAndBounded: over a thousand seeds and a few
// bounds, the same seed rolls the same program, and every program stays
// inside its bounds — machine, thread and random-op counts, the flush
// budget, the cells — with critical sections one deep and free of
// yields, the mutex there iff a section is, and the pattern planted only
// where its two cells and a random one fit.
func TestGenerateIsDeterministicAndBounded(t *testing.T) {
	configs := []GenConfig{
		{},
		{MaxMachines: 1, MaxThreadsPerMachine: 1, MaxOpsPerThread: 1, MaxCells: 1, FlushBudget: 1},
		{MaxMachines: 3, MaxThreadsPerMachine: 3, MaxOpsPerThread: 8, MaxCells: 2, FlushBudget: 5},
		{MaxMachines: 2, MaxThreadsPerMachine: 4, MaxOpsPerThread: 12, MaxCells: 3, FlushBudget: 1},
		{MaxMachines: 4, MaxThreadsPerMachine: 2, MaxOpsPerThread: 6, MaxCells: 8, FlushBudget: 2},
	}
	for _, gc := range configs {
		for seed := int64(0); seed < 1000; seed++ {
			p := Generate(seed, gc)
			if !reflect.DeepEqual(p, Generate(seed, gc)) {
				t.Fatalf("%+v seed %d: two calls rolled two programs", gc, seed)
			}
			if err := checkBounds(p, gc.withDefaults()); err != "" {
				t.Fatalf("%+v seed %d: %s\n%+v", gc, seed, err, p)
			}
		}
	}
}

func checkBounds(p *Program, gc GenConfig) string {
	base := 0
	if p.Pattern {
		base = 2
		if gc.MaxCells < 3 {
			return "the pattern is planted in fewer than three cells"
		}
	}
	if p.Cells <= base || p.Cells > gc.MaxCells {
		return "cell count out of range"
	}
	if n := len(p.Machines); n < 1 || n > gc.MaxMachines {
		return "machine count out of range"
	}
	flushes, critical := 0, false
	var check func(ops []Op, inside bool) string
	check = func(ops []Op, inside bool) string {
		for _, op := range ops {
			switch op.Code {
			case Store, Load:
				if op.Size != 1 && op.Size != 2 && op.Size != 4 && op.Size != 8 {
					return "bad access size"
				}
			case Flush, FlushOpt:
				flushes++
			case Yield:
				if inside {
					return "a yield inside a critical section"
				}
			case Critical:
				if inside {
					return "a nested critical section"
				}
				if len(op.Inner) == 0 {
					return "an empty critical section"
				}
				critical = true
				if err := check(op.Inner, true); err != "" {
					return err
				}
			}
			switch op.Code {
			case Store, Load, Flush, FlushOpt, CAS, FetchAdd:
				if op.Cell < base || op.Cell >= p.Cells {
					return "cell out of range"
				}
				if op.Val > 255 {
					return "value out of range"
				}
			}
		}
		return ""
	}
	for m, threads := range p.Machines {
		if n := len(threads); n < 1 || n > gc.MaxThreadsPerMachine {
			return "thread count out of range"
		}
		for t, ops := range threads {
			if p.Pattern && m == 0 && t == 0 {
				w := patternWriter(ops[1].Code == Flush)
				if !reflect.DeepEqual(ops[:len(w)], w) {
					return "machine 0's thread 0 does not open with the pattern's writer"
				}
				ops = ops[len(w):]
			}
			if len(ops) > gc.MaxOpsPerThread {
				return "too many ops in a thread"
			}
			if err := check(ops, false); err != "" {
				return err
			}
		}
	}
	if flushes > gc.FlushBudget {
		return "flush budget overspent"
	}
	if p.Mutex != critical {
		return "Mutex is set without a critical section, or a section without it"
	}
	return ""
}

// TestCorpus: the corpus holds the number of programs its doc gives, each
// store writing a value no other store of its program writes.
func TestCorpus(t *testing.T) {
	n := 0
	for p := range Corpus(2) {
		n++
		vals := map[uint64]bool{}
		for _, threads := range p.Machines {
			for _, op := range threads[0] {
				if op.Code != Store {
					continue
				}
				if vals[op.Val] {
					t.Fatalf("two stores of %d in %+v", op.Val, p)
				}
				vals[op.Val] = true
			}
		}
	}
	if n != 10804 {
		t.Fatalf("%d programs at k = 2, want 10 804", n)
	}
}
