package recipe_test

import (
	"maps"
	"slices"
	"testing"

	cxlmc "repro"
	"repro/internal/recipe"
)

// stub is an index kept on the host, outside simulated memory, that gets
// one thing wrong on purpose, so the RECIPE workload's checks can be seen failing.
// It is laid out afresh every execution, like a real index.
type stub struct {
	fault string
	m     map[uint64]uint64
}

func (s *stub) Init(*cxlmc.Thread) {}

func (s *stub) Insert(_ *cxlmc.Thread, key, val uint64) { s.m[key] = val }

func (s *stub) Lookup(t *cxlmc.Thread, key uint64) (uint64, bool) {
	v, ok := s.m[key]
	reader := t.Name() == "reader"
	switch {
	case s.fault == "value" && key == 1,
		s.fault == "target-value" && key == 3,
		s.fault == "reader-value" && reader && key == 3:
		v++
	case s.fault == "missing" && key == 1,
		s.fault == "scan-deleted" && key == 3,
		s.fault == "reader-missing" && reader && key == 3:
		return 0, false
	case s.fault == "resurrected" && key == 3:
		return recipe.Value(3), true
	}
	return v, ok
}

func (s *stub) Delete(_ *cxlmc.Thread, key uint64) bool {
	_, ok := s.m[key]
	if s.fault != "scan-deleted" {
		delete(s.m, key)
	}
	return ok
}

func (s *stub) Scan(*cxlmc.Thread) ([]uint64, []uint64) {
	ks := slices.Sorted(maps.Keys(s.m))
	switch s.fault {
	case "scan-duplicate":
		ks = slices.Insert(ks, 1, ks[1])
	case "scan-disorder":
		ks[0], ks[1] = ks[1], ks[0]
	case "scan-missing":
		ks = slices.DeleteFunc(ks, func(k uint64) bool { return k == 3 })
	}
	vs := make([]uint64, len(ks))
	for i, k := range ks {
		vs[i] = s.m[k]
	}
	if s.fault == "scan-value" {
		vs[0]++
	}
	return ks, vs
}

// TestFailedChecksKeepTheirWords: every check the RECIPE workload runs each
// execution reports, when it fails, the exact assertion text it did when
// it was a Thread.Assert. The workload is three keys on two machines:
// node0's worker inserts keys 3 and 1, node1's key 2; with deletes on,
// key 3 is then deleted.
func TestFailedChecksKeepTheirWords(t *testing.T) {
	for _, c := range []struct {
		fault   string
		deletes bool
		readers bool
		want    string
	}{
		{"value", false, false, "committed key 1 has value 0x9e3779b97f4a7c16, want 0x9e3779b97f4a7c15"},
		{"missing", false, false, "committed key 1 missing after failure"},
		{"target-value", true, false, "key 3 has value 0xdaa66d2c7ddf7440, want 0xdaa66d2c7ddf743f"},
		{"resurrected", true, false, "deleted key 3 resurrected after failure (value 0xdaa66d2c7ddf743f)"},
		{"scan-duplicate", false, false, "scan not strictly increasing at 2: 2 after 2 (duplicate or disorder)"},
		{"scan-disorder", false, false, "scan not strictly increasing at 1: 1 after 2 (duplicate or disorder)"},
		{"scan-value", false, false, "scan: key 1 carries value 0x9e3779b97f4a7c16, want 0x9e3779b97f4a7c15"},
		{"scan-missing", false, false, "committed key 3 missing from scan"},
		{"scan-deleted", true, false, "deleted key 3 present in scan"},
		{"reader-value", false, true, "racing reader: key 3 value 0xdaa66d2c7ddf7440"},
		{"reader-missing", false, true, "racing reader: committed key 3 missing"},
	} {
		t.Run(c.fault, func(t *testing.T) {
			b := recipe.Benchmark{Name: "stub", New: func(*cxlmc.Program, recipe.Bug) recipe.Index {
				return &stub{fault: c.fault, m: map[uint64]uint64{}}
			}}
			cfg := recipe.Config{Keys: 3, Deletes: c.deletes, ConcurrentReaders: c.readers}
			res, err := cxlmc.Run(cxlmc.Config{Workers: 1, ContinueAfterBug: true}, recipe.Program(b, cfg))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, bug := range res.Bugs {
				if bug.Kind == cxlmc.BugAssertion && bug.Message == c.want {
					return
				}
				got = append(got, bug.Kind.String()+": "+bug.Message)
			}
			t.Errorf("no assertion %q in %d executions; bugs:\n%v", c.want, res.Executions, got)
		})
	}
}
