// Package bench is cxlbench, the repository's standing benchmark: six
// workloads that each stress a different slice of the checker's stack,
// the same end-to-end metrics on every workload, and a per-layer
// ledger priced from outside — through the public functions of sched,
// decision, memmodel, core, analyze, gofront, dist, jobs and obs — so
// the benchmark edits no code it measures. BENCHMARK.json at the
// repository root names the command, the workloads a gate runs and the
// metrics, and holds the regression bounds; bench/README.md says why each workload
// exists and which layer metric should move which end-to-end metric.
//
// Every workload runs in its own child process of the one command, so
// set-up time, CPU, allocations and peak RSS are per workload, and every
// verdict a timed op produces is checked against bench/expected.json.
package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Workload names, in the order they run and print.
const (
	Table5     = "table5"
	Litmus     = "litmus"
	SourceCCEH = "source_cceh"
	BwtreePar  = "bwtree_par"
	Dist2W     = "dist_2w"
	JobsAPI    = "jobs_api"
)

// Size is one workload's shape: the GOMAXPROCS its child runs at,
// warm-up ops per set-up pass, timed ops of a full untraced run,
// untraced/traced op pairs of a full traced run, and the pairs a
// time-bounded traced run gives a workload it was not asked about.
//
// GOMAXPROCS is pinned like Workers is, so hosts compare — and because a
// serial exploration is neither as fast nor as steady with a second P.
// Every simulated step is a goroutine handoff over a channel, which the
// runtime may carry over to an idle P, and the garbage collector's
// workers run beside the mutator. Alternating four ops at GOMAXPROCS 1
// and four at 2 inside one process, source_cceh takes 54 ms against
// 80–104 ms and a table5 round 0.48 s against 0.56–0.61 s. The serial
// workloads therefore run at 1, and what the second P costs is priced
// once, as sched.procs2_tax_ratio.
type Size struct {
	Name                              string
	Procs, Warmup, Ops, Traced, Floor int
}

// Sizes lists the workloads (2-core host: a full untraced run takes
// about 100 s in total).
var Sizes = []Size{
	{Table5, 1, 2, 40, 5, 2},
	{Litmus, 1, 2, 40, 5, 2},
	{SourceCCEH, 1, 5, 100, 5, 3},
	{BwtreePar, 2, 5, 100, 5, 3},
	{Dist2W, 2, 2, 40, 5, 2},
	// jobs_api keeps 300 ops when traced: its p95 needs the samples.
	{JobsAPI, 2, 10, 300, 150, 20},
}

// SizeOf returns the named workload's op counts.
func SizeOf(name string) (Size, bool) {
	for _, s := range Sizes {
		if s.Name == name {
			return s, true
		}
	}
	return Size{}, false
}

// Metric is one named number with its unit.
type Metric struct {
	Name string
	Unit string
}

// EndToEnd lists the end-to-end metrics every workload reports, the ones
// BENCHMARK.json puts a bound on. The timings are the best of a run (see
// endToEnd for why). The issue's failed_ratio must be 0 and so cannot
// carry a relative bound: it travels as the result's failed/attempted
// counts, and any failed op makes the command exit 1.
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"verdict_s_min", "s"},
	{"steps_per_s_max", "steps/s"},
	{"cpu_s_per_op_min", "s"},
	{"allocs_per_op", "count"},
}

// Reported lists the timings every workload prints beside them, with
// their sample count, that carry no bound: on a shared host the median
// and the 75th percentile of a run's ops follow the host.
var Reported = []Metric{
	{"verdict_s_p50", "s"},
	{"verdict_s_p75", "s"},
}

// Table5Rows are the twelve rows of the paper's Table 5: the six RECIPE
// programs without and with GPF mode.
var Table5Rows = []string{
	"CCEH", "FAST_FAIR", "P-ART", "P-BwTree", "P-CLHT", "P-MassTree",
	"CCEH_GPF", "FAST_FAIR_GPF", "P-ART_GPF", "P-BwTree_GPF", "P-CLHT_GPF", "P-MassTree_GPF",
}

// PerLayer returns the per-layer ledger's metrics, sorted by name.
func PerLayer() []Metric {
	ms := []Metric{
		{"sched.handoff_ns", "ns"},
		{"sched.procs2_tax_ratio", "ratio"},
		{"sched.handoff_timeout_ns", "ns"},
		{"sched.spawn_teardown_ns", "ns"},
		{"sched.handoff_share.table5", "ratio"},

		{"decision.choose_advance_ns", "ns"},
		{"decision.split_ns", "ns"},
		{"decision.snapshot_restore_ns", "ns"},
		{"decision.points_per_exec.table5", "count"},

		{"memmodel.load_ns.s1", "ns"},
		{"memmodel.load_ns.s8", "ns"},
		{"memmodel.load_ns.s64", "ns"},
		{"memmodel.load_ns.m4", "ns"},
		{"memmodel.commit_store_ns", "ns"},
		{"memmodel.flush_ns", "ns"},
		{"memmodel.reset_ns", "ns"},

		{"core.ns_per_step.table5", "ns"},
		{"core.ns_per_step.litmus", "ns"},
		{"core.ns_per_exec.table5", "ns"},
		{"core.ns_per_exec.litmus", "ns"},
		{"core.race_tax_ratio", "ratio"},
		{"core.reduction_exec_ratio.CCEH", "ratio"},
		{"core.prefix_fork_step_ratio.table5", "ratio"},
		{"core.pruned_per_exec.table5", "count"},
		{"core.parallel_speedup_2w", "ratio"},
		{"core.unit_claims_per_op.bwtree_par", "count"},
		{"core.frontier_lease_complete_ns", "ns"},
		{"core.checkpoint_tax_ratio", "ratio"},
		{"core.replay_ms", "ms"},

		{"analyze.vet_ms.table5", "ms"},

		{"gofront.load_ms", "ms"},
		{"gofront.interp_ratio", "ratio"},
		{"gofront.ns_per_step", "ns"},
		{"gofront.ns_per_loop_iter", "ns"},
		{"gofront.ns_per_event", "ns"},

		{"dist.tax_ratio", "ratio"},
		{"dist.empty_op_ms", "ms"},
		{"dist.lease_grants_per_op", "count"},
		{"dist.units_donated_per_op", "count"},
		{"dist.rpc_retries_per_op", "count"},
		{"dist.lease_reclaims_per_op", "count"},
		{"dist.stale_completions_per_op", "count"},

		{"jobs.submit_ms_p50", "ms"},
		{"jobs.queue_wait_ms_p50", "ms"},
		{"jobs.run_ms_p50", "ms"},
		{"jobs.poll_lag_ms_p50", "ms"},
		{"jobs.latency_ms_p95", "ms"},
		{"jobs.service_tax_ratio", "ratio"},
		{"jobs.journal_bytes_per_job", "bytes"},
		{"jobs.start_ms", "ms"},
		{"jobs.recover_ms", "ms"},
		{"jobs.rejected_ratio", "ratio"},

		{"obs.metrics_overhead_ratio", "ratio"},
		{"obs.trace_overhead_ratio", "ratio"},
		{"obs.counter_inc_ns", "ns"},

		{"harness.hunt_round_s", "s"},
		{"harness.hunt_execs", "count"},
		{"harness.hunt_slowest_ms", "ms"},
		{"harness.litmus_execs", "count"},
		{"harness.litmus_steps", "count"},
	}
	for _, row := range Table5Rows {
		ms = append(ms,
			Metric{"recipe.verdict_ms." + row, "ms"},
			Metric{"recipe.ns_per_step." + row, "ns"},
			Metric{"recipe.execs." + row, "count"})
	}
	for _, s := range Sizes {
		ms = append(ms,
			Metric{"process.peak_rss_mb." + s.Name, "MB"},
			Metric{"process.alloc_bytes_per_op." + s.Name, "bytes"},
			Metric{"bench.trace_overhead." + s.Name, "ratio"})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}

// ExactPerLayer reports whether a per-layer metric is a count that must
// repeat exactly between two runs of the same code at the same seed:
// explored counts of serial workloads.
func ExactPerLayer(name string) bool {
	switch name {
	case "harness.hunt_execs", "harness.litmus_execs", "harness.litmus_steps",
		"core.reduction_exec_ratio.CCEH":
		return true
	}
	return strings.HasPrefix(name, "recipe.execs.")
}

// Value is one measured metric as result files and the contract line
// carry it.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values pairs measured numbers with the units of the metric list,
// failing on a missing or unlisted name so a renamed metric cannot
// silently drop out of a result.
func values(list []Metric, got map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(list))
	for _, m := range list {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", m.Name)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("bench: measured %s is not a listed metric", name)
		}
	}
	return out, nil
}
