package bench

import (
	"context"
	"encoding/json"
	"flag"
	"reflect"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "re-derive bench/expected.json from serial runs and rewrite it")

// TestSmoke runs one untraced and one traced op of every workload, and
// the probes at their smallest, through the code the command runs, and
// checks what comes out against BENCHMARK.json: the same names and
// units, well-formed, within the contract's limits, and a result file
// that survives a round trip. Every verdict is checked against
// expected.json on the way (or, with -update, recorded into it).
//
// It compares explored counts only of runs that complete: the counts of
// a bug-aborted parallel run are not invariant.
func TestSmoke(t *testing.T) {
	root, err := FindRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := LoadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	pins := recordingPins()
	if !*update {
		if pins, err = LoadPins(); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Seed: DefaultSeed, Root: root, Pins: pins}

	res := &Result{Host: HostFacts(root), Seed: DefaultSeed, Traced: true}
	children := map[string]*ChildResult{}
	run := func(spec ChildSpec) *ChildResult {
		t.Helper()
		spec.Seed, spec.Reps = DefaultSeed, 1
		c, err := startChild(context.Background(), opts, spec)
		if err != nil {
			t.Fatal(err)
		}
		if c.Failed > 0 {
			t.Fatalf("%s: %d of %d failed: %v", c.Workload, c.Failed, c.Attempted, c.Failures)
		}
		return c
	}
	for _, size := range Sizes {
		c := run(ChildSpec{Workload: size.Name, Procs: size.Procs, Ops: 1, Traced: true})
		children[size.Name] = c
		if len(c.Spans) == 0 {
			t.Errorf("%s: the traced op recorded no span", size.Name)
		}
		got, _, _, err := endToEnd(c)
		if err != nil {
			t.Fatal(err)
		}
		e2e, err := values(EndToEnd, got)
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range e2e {
			if !(v.Value > 0) {
				t.Errorf("%s %s = %v: end-to-end metrics are never 0", size.Name, name, v.Value)
			}
		}
		res.Workloads = append(res.Workloads, WorkloadResult{Name: size.Name, Ops: 2, Attempted: c.Attempted, EndToEnd: e2e})
	}
	perLayer, detail := assemble(children, run(ChildSpec{Workload: Probes, Procs: 1}))
	if res.PerLayer, err = values(PerLayer(), perLayer); err != nil {
		t.Fatal(err)
	}
	res.Detail = detail

	if *update {
		if err := writeJSON("expected.json", pins); err != nil {
			t.Fatal(err)
		}
		t.Log("rewrote expected.json")
	}

	// The derived ratios are the quotients of the medians beside them.
	for _, q := range []struct{ ratio, num, den string }{
		{"gofront.interp_ratio", "source_cceh.source_s_p50", "source_cceh.twin_s_p50"},
		{"dist.tax_ratio", "dist_2w.dist_s_p50", "dist_2w.in_process_s_p50"},
		{"jobs.service_tax_ratio", "jobs_api.job_s_p50", "jobs_api.direct_s_p50"},
		{"core.race_tax_ratio", "table5.race_on_s_p50", "table5.race_off_s_p50"},
		{"core.parallel_speedup_2w", "bwtree_par.workers1_s_p50", "bwtree_par.workers2_s_p50"},
	} {
		if got, want := perLayer[q.ratio], detail[q.num]/detail[q.den]; got != want {
			t.Errorf("%s = %v, but %s / %s = %v", q.ratio, got, q.num, q.den, want)
		}
	}

	// The result file round-trips.
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	back := &Result{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Error("the result file does not survive a JSON round trip")
	}

	// Names: well-formed, equal to BENCHMARK.json's, within its limits.
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, emitted, listed map[string]string, limit int) {
		t.Helper()
		if len(listed) > limit {
			t.Errorf("BENCHMARK.json lists %d %s, over the limit of %d", len(listed), kind, limit)
		}
		for name, unit := range emitted {
			if !wellFormed.MatchString(name) {
				t.Errorf("%s name %q is not well-formed", kind, name)
			}
			if lu, ok := listed[name]; !ok {
				t.Errorf("%s %s is emitted but not in BENCHMARK.json", kind, name)
			} else if lu != unit {
				t.Errorf("%s %s has unit %q, BENCHMARK.json says %q", kind, name, unit, lu)
			}
		}
		for name := range listed {
			if _, ok := emitted[name]; !ok {
				t.Errorf("%s %s is in BENCHMARK.json but not emitted", kind, name)
			}
		}
	}
	// BENCHMARK.json gates a subset of the workloads: the run length a
	// steady number needs leaves a gate time for few of them.
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("BENCHMARK.json lists %d workloads, outside 2..8", n)
	}
	for _, w := range man.Workloads {
		if _, ok := SizeOf(w.Name); !ok {
			t.Errorf("workload %s is in BENCHMARK.json but the command does not run it", w.Name)
		}
	}

	emitted, listed := map[string]string{}, map[string]string{}
	for name, v := range res.Workloads[0].EndToEnd {
		emitted[name] = v.Unit
	}
	for _, m := range man.EndToEnd {
		listed[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s has bound %v, outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end-to-end metric", emitted, listed, 16)

	emitted, listed = map[string]string{}, map[string]string{}
	for name, v := range res.PerLayer {
		emitted[name] = v.Unit
	}
	for _, m := range man.PerLayer {
		listed[m.Name] = m.Unit
	}
	check("per-layer metric", emitted, listed, 128)
}
