package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Options is the benchmark's whole surface, one field per flag.
type Options struct {
	// Workload names one workload, or "all". A traced run always runs
	// all six — the ledger's ratios span them — and spends Seconds on
	// the named one.
	Workload string
	Seed     int64
	// Seconds bounds each workload's timed loop; 0 runs the full op
	// counts of Sizes.
	Seconds int
	Traced  bool
	// Out is the result file; "" picks bench/out/result.json, or
	// bench/out/ledger.json for a traced run.
	Out string

	// Root is the repository root.
	Root string
	// Exe is the binary children are started from (this one, with the
	// hidden -child flag). Empty runs the children in-process, which the
	// smoke test does; their set-up, CPU, allocations and peak RSS are
	// then not per workload.
	Exe string
	// Pins are the pinned verdicts in-process children check against.
	Pins *Pins
}

// WorkloadResult is one workload's part of a result file.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Ops       int      `json:"ops"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// EndToEnd is only present in untraced runs: end-to-end numbers
	// never come from a run that was also tracing. Reported are the
	// timings printed beside them that no bound applies to.
	EndToEnd map[string]Value `json:"end_to_end,omitempty"`
	Reported map[string]Value `json:"reported,omitempty"`
	// Spread is the distance between the quartiles of a metric's samples
	// within this run, as a share of their median, for the metrics that
	// have samples. -compare calls a difference it cannot tell from this
	// noise unresolved.
	Spread map[string]float64 `json:"spread,omitempty"`
}

// Result is a result file.
type Result struct {
	Host      Host               `json:"host"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Workloads []WorkloadResult   `json:"workloads"`
	PerLayer  map[string]Value   `json:"per_layer,omitempty"`
	Detail    map[string]float64 `json:"detail,omitempty"`
}

// Line is the last line of standard output when one workload was named:
// the result in the shape the benchmark contract fixes.
type Line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// OutDir is where the benchmark writes: result files, trace.json and
// the work directories of running children.
func OutDir(root string) string { return filepath.Join(root, "bench", "out") }

// FindRoot walks up from the working directory to the directory holding
// BENCHMARK.json.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no BENCHMARK.json in the working directory or above it: run from the repository")
		}
		dir = parent
	}
}

// Run runs the benchmark, prints every metric by name with its unit to
// w, writes the result file, and reports whether every op passed.
func Run(ctx context.Context, w io.Writer, opts Options) (bool, error) {
	if _, ok := SizeOf(opts.Workload); !ok && opts.Workload != "all" {
		return false, fmt.Errorf("bench: unknown workload %q", opts.Workload)
	}
	// A hang is a failed run, not a stuck one: past the deadline the
	// running child is killed. A time-bounded run has 180 s to exit.
	deadline := 30 * time.Minute
	if opts.Seconds > 0 {
		deadline = 170 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	res := &Result{Host: HostFacts(opts.Root), Seed: opts.Seed, Traced: opts.Traced}
	children := map[string]*ChildResult{}
	for _, size := range Sizes {
		named := size.Name == opts.Workload
		if !named && opts.Workload != "all" && !opts.Traced {
			continue
		}
		c, err := startChild(ctx, opts, childSpec(size, opts, named))
		if err != nil {
			return false, err
		}
		children[size.Name] = c
		wr := WorkloadResult{
			Name: size.Name, Ops: len(c.OpS) + len(c.TracedOpS),
			Attempted: c.Attempted, Failed: c.Failed, Failures: c.Failures,
		}
		if !opts.Traced {
			got, reported, spreads, err := endToEnd(c)
			if err != nil {
				return false, err
			}
			if wr.EndToEnd, err = values(EndToEnd, got); err != nil {
				return false, err
			}
			if wr.Reported, err = values(Reported, reported); err != nil {
				return false, err
			}
			wr.Spread = spreads
			for _, m := range EndToEnd {
				fmt.Fprintf(w, "%-12s %-16s %14.6g %-8s n=%d\n", size.Name, m.Name, got[m.Name], m.Unit, samples(c, m.Name))
			}
			for _, m := range Reported {
				fmt.Fprintf(w, "%-12s %-16s %14.6g %-8s n=%d (not gated)\n", size.Name, m.Name, reported[m.Name], m.Unit, samples(c, m.Name))
			}
		}
		for _, f := range c.Failures {
			fmt.Fprintf(w, "%-12s FAILED OP: %s\n", size.Name, f)
		}
		res.Workloads = append(res.Workloads, wr)
	}

	line := Line{}
	if opts.Traced {
		probes, err := startChild(ctx, opts, ChildSpec{Workload: Probes, Seed: opts.Seed, Procs: 1, Reps: reps(opts)})
		if err != nil {
			return false, err
		}
		for _, f := range probes.Failures {
			fmt.Fprintf(w, "%-12s FAILED: %s\n", Probes, f)
		}
		line.Attempted += probes.Attempted
		line.Failed += probes.Failed
		perLayer, detail := assemble(children, probes)
		if res.PerLayer, err = values(PerLayer(), perLayer); err != nil {
			return false, err
		}
		res.Detail = detail
		for _, m := range PerLayer() {
			fmt.Fprintf(w, "%-40s %14.6g %s\n", m.Name, perLayer[m.Name], m.Unit)
		}
		if err := writeJSON(filepath.Join(OutDir(opts.Root), "trace.json"), traceFile(children)); err != nil {
			return false, err
		}
		line.Metrics = res.PerLayer
	}
	for _, wr := range res.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		if !opts.Traced {
			line.Metrics = wr.EndToEnd
		}
	}
	line.Correct = line.Failed == 0

	out := opts.Out
	switch {
	case out != "":
	case opts.Traced:
		out = filepath.Join(OutDir(opts.Root), "ledger.json")
	default:
		out = filepath.Join(OutDir(opts.Root), "result.json")
	}
	if err := writeJSON(out, res); err != nil {
		return false, err
	}
	if opts.Workload != "all" {
		data, err := json.Marshal(line)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "%s\n", data)
	}
	return line.Correct, nil
}

// reps is how often a traced run repeats each comparison run.
func reps(opts Options) int {
	if opts.Seconds > 0 {
		return 2
	}
	return 5
}

// childSpec sizes one workload's child. A full run uses the op counts
// of Sizes. A time-bounded run warms up with one op per set-up pass:
// its bounded timings are minima, which no warm-up changes, and a short
// pass fits into a calm stretch of the host. Untraced it spends Seconds
// on timed ops and the set-up passes among them; traced it spends a third
// of Seconds on the named workload's pairs and runs the other five at
// their floor.
func childSpec(size Size, opts Options, named bool) ChildSpec {
	spec := ChildSpec{Workload: size.Name, Seed: opts.Seed, Procs: size.Procs, Warmup: size.Warmup, Ops: size.Ops, Traced: opts.Traced, Reps: reps(opts)}
	switch {
	case opts.Seconds > 0 && opts.Traced:
		spec.Warmup, spec.Ops = 1, size.Floor
		if named {
			spec.Seconds = float64(opts.Seconds) / 3
		}
	case opts.Seconds > 0:
		spec.Warmup, spec.Seconds = 1, float64(opts.Seconds)
	case opts.Traced:
		spec.Ops = size.Traced
	}
	return spec
}

// startChild runs one child to completion in its own work directory,
// removed on every path; cancelling ctx kills the child.
func startChild(ctx context.Context, opts Options, spec ChildSpec) (*ChildResult, error) {
	dir, err := workDir(opts.Root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec.Root, spec.Dir = opts.Root, dir
	if opts.Exe == "" {
		if spec.Workload == Probes {
			return RunProbes(spec, opts.Pins)
		}
		return RunChild(spec, opts.Pins)
	}

	spec.Spawned = time.Now().UnixNano()
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, opts.Exe, "-child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("killed: %w", ctx.Err())
		}
		return nil, fmt.Errorf("bench: %s child: %w", spec.Workload, err)
	}
	res := &ChildResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("bench: %s child wrote no result: %w", spec.Workload, err)
	}
	return res, nil
}

// ChildMain is the hidden -child mode: run the spec, print the result.
func ChildMain(w io.Writer, arg string) error {
	var spec ChildSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("bench: bad -child spec: %w", err)
	}
	pins, err := LoadPins()
	if err != nil {
		return err
	}
	run := RunChild
	if spec.Workload == Probes {
		run = RunProbes
	}
	res, err := run(spec, pins)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(res)
}

// endToEnd derives the end-to-end metrics, the reported-only timings
// and the in-run spread of those that have samples from a child's
// measurements.
//
// Every gated timing is the best the run saw: the fastest set-up pass,
// the fastest op, the op that cost the least CPU. The host this runs on
// serves goroutine-switch-heavy code at two speeds, in phases longer
// than an op and often longer than ten seconds (see README, "Noise on
// the baseline host"), so a run's median follows the host's mix of
// phases while its minimum needs one undisturbed op. What a change does
// to every op it does to the fastest one; the median and p75 are printed
// beside it for what it does to the slow ones.
func endToEnd(c *ChildResult) (metrics, reported, spreads map[string]float64, err error) {
	if len(c.OpS) == 0 {
		return nil, nil, nil, fmt.Errorf("bench: %s: no timed op succeeded: %v", c.Workload, c.Failures)
	}
	rates := make([]float64, len(c.OpS))
	for i, s := range c.OpS {
		rates[i] = float64(c.OpSteps[i]) / s
	}
	metrics = map[string]float64{
		"setup_s":          c.StartS + quantile(c.SetupS, 0),
		"verdict_s_min":    quantile(c.OpS, 0),
		"steps_per_s_max":  quantile(rates, 1),
		"cpu_s_per_op_min": quantile(c.OpCPUS, 0),
		"allocs_per_op":    float64(c.Mallocs) / float64(len(c.OpS)),
	}
	reported = map[string]float64{
		"verdict_s_p50": median(c.OpS),
		"verdict_s_p75": quantile(c.OpS, 0.75),
	}
	spreads = map[string]float64{
		"setup_s":          spread(c.SetupS),
		"verdict_s_min":    spread(c.OpS),
		"steps_per_s_max":  spread(rates),
		"cpu_s_per_op_min": spread(c.OpCPUS),
	}
	return metrics, reported, spreads, nil
}

// samples is how many samples stand behind a printed end-to-end metric.
func samples(c *ChildResult, metric string) int {
	if metric == "setup_s" {
		return len(c.SetupS)
	}
	return len(c.OpS)
}

// assemble builds the per-layer ledger of a traced run from the
// children's own ledgers and their per-process numbers. Ledger keys
// under "detail." are the medians the ledger's ratios are quotients of;
// they go to the result file beside the ledger.
func assemble(children map[string]*ChildResult, probes *ChildResult) (perLayer, detail map[string]float64) {
	perLayer, detail = map[string]float64{}, map[string]float64{}
	for _, c := range append([]*ChildResult{probes}, sorted(children)...) {
		for k, v := range c.Ledger {
			if d, ok := strings.CutPrefix(k, "detail."); ok {
				detail[d] = v
			} else {
				perLayer[k] = v
			}
		}
		if c == probes {
			continue
		}
		detail[c.Workload+".untraced_s_p50"] = median(c.OpS)
		detail[c.Workload+".traced_s_p50"] = median(c.TracedOpS)
		perLayer["bench.trace_overhead."+c.Workload] = median(c.TracedOpS) / median(c.OpS)
		perLayer["process.peak_rss_mb."+c.Workload] = c.PeakRSSMB
		perLayer["process.alloc_bytes_per_op."+c.Workload] = float64(c.AllocBytes) / float64(len(c.OpS)+len(c.TracedOpS))
	}
	return perLayer, detail
}

// sorted returns the children in Sizes order.
func sorted(children map[string]*ChildResult) []*ChildResult {
	var out []*ChildResult
	for _, s := range Sizes {
		if c, ok := children[s.Name]; ok {
			out = append(out, c)
		}
	}
	return out
}

// traceFile is bench/out/trace.json: every workload's spans.
func traceFile(children map[string]*ChildResult) map[string][]Span {
	out := map[string][]Span{}
	for _, c := range sorted(children) {
		out[c.Workload] = c.Spans
	}
	return out
}

func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
