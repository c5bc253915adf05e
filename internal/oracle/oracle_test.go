package oracle_test

import (
	"testing"

	"repro/internal/oracle"
	"repro/internal/progir"
)

// TestOutOfScopeIsAnError: what the oracle's rules do not cover is
// refused, never answered with a wrong set.
func TestOutOfScopeIsAnError(t *testing.T) {
	writer := func(ops ...progir.Op) [][][]progir.Op { return [][][]progir.Op{{ops}} }
	store := progir.Op{Code: progir.Store, Size: 8, Val: 1}
	cases := map[string]*progir.Program{
		"a load in a writer":       {Cells: 1, Machines: writer(store, progir.Op{Code: progir.Load, Size: 8})},
		"a CAS":                    {Cells: 1, Machines: writer(progir.Op{Code: progir.CAS, Val: 1})},
		"a fetch-add":              {Cells: 1, Machines: writer(progir.Op{Code: progir.FetchAdd, Val: 1})},
		"a critical section":       {Cells: 1, Mutex: true, Machines: writer(progir.Op{Code: progir.Critical, Inner: []progir.Op{store}})},
		"a sub-word store":         {Cells: 1, Machines: writer(progir.Op{Code: progir.Store, Size: 4, Val: 1})},
		"a yield":                  {Cells: 1, Machines: writer(progir.Op{Code: progir.Yield})},
		"two threads":              {Cells: 1, Machines: [][][]progir.Op{{{store}, {store}}}},
		"a join of a later one":    {Cells: 1, Machines: [][][]progir.Op{{{{Code: progir.Join, Machine: 1}}}, {{store}}}},
		"a cell out of range":      {Cells: 1, Machines: writer(progir.Op{Code: progir.Flush, Cell: 1})},
		"too few lines":            {Cells: 2, Lines: []int{0}, Machines: writer(store)},
		"an observed cell too far": {Cells: 1, Observe: []int{1}, Machines: writer(store)},
		"the pattern":              {Cells: 3, Pattern: true, Machines: writer(store)},
	}
	for name, p := range cases {
		if set, err := oracle.Outcomes(p); err == nil {
			t.Errorf("%s: got %v, want an error", name, set)
		}
	}
}
