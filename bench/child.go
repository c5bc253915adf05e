package bench

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// An untraced child sets its workload up setupPasses times before the
// timed ops (the last pass's instance runs them) and spreadPasses times
// among them, at even distances through the run: set-up time is one
// sample per pass, and the host serves this code at two speeds in phases
// of seconds, so passes that lie seconds apart do not all meet the slow
// one. A traced child reports no set-up time and sets up once.
const (
	setupPasses  = 3
	spreadPasses = 8
)

// ChildSpec tells a child process which workload to run and how much of
// it. The parent passes it as JSON in the hidden -child flag.
type ChildSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Root     string `json:"root"`
	Dir      string `json:"dir"`
	// Spawned is when the parent started the child (Unix nanoseconds):
	// set-up time runs from there.
	Spawned int64 `json:"spawned"`
	// Procs is the GOMAXPROCS the child runs at.
	Procs int `json:"procs"`
	// Warmup is the untimed ops that end each set-up pass.
	Warmup int `json:"warmup"`
	// Ops is the timed op count; with Seconds > 0 the timed loop, the
	// set-up passes spread through it included, instead runs until that
	// much time has passed (and at least minOps ops).
	Ops     int     `json:"ops"`
	Seconds float64 `json:"seconds"`
	// Traced makes every second timed op a traced one and adds the
	// workload's per-layer ledger (each extra run repeated Reps times);
	// Ops then counts untraced/traced pairs.
	Traced bool `json:"traced"`
	Reps   int  `json:"reps"`
}

// minOps is the fewest timed ops (or pairs) a time-bounded child runs.
const minOps = 3

// ChildResult is everything one child measured.
type ChildResult struct {
	Workload string `json:"workload"`
	// SetupS is the duration of each set-up pass; StartS is the time from
	// the parent's spawn to the child's first instruction of main.
	SetupS []float64 `json:"setup_s"`
	StartS float64   `json:"start_s"`
	// OpS are the wall times of the untraced timed ops, OpCPUS the
	// process's user+system CPU over each and OpSteps the steps each
	// explored; TracedOpS are the traced ops' wall times.
	OpS       []float64 `json:"op_s"`
	OpCPUS    []float64 `json:"op_cpu_s"`
	OpSteps   []int64   `json:"op_steps"`
	TracedOpS []float64 `json:"traced_op_s,omitempty"`
	// Mallocs and AllocBytes cover the whole timed loop.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Attempted counts timed ops (and, traced, the ledger); Failed those
	// that errored, missed the deadline, did not complete or produced
	// another verdict than the pinned one.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	PeakRSSMB float64  `json:"peak_rss_mb"`

	Ledger map[string]float64 `json:"ledger,omitempty"`
	Spans  []Span             `json:"spans,omitempty"`
}

// RunChild sets the workload up, runs its timed ops and measures them.
// A failed op is counted, not fatal; only a failed set-up is an error.
func RunChild(spec ChildSpec, pins *Pins) (*ChildResult, error) {
	setup, ok := setups[spec.Workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", spec.Workload)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(spec.Procs))
	res := &ChildResult{Workload: spec.Workload}
	if spec.Spawned != 0 {
		res.StartS = time.Since(time.Unix(0, spec.Spawned)).Seconds()
	}
	e := &env{seed: spec.Seed, root: spec.Root, dir: spec.Dir, pins: pins}

	// pass sets the workload up, runs the warm-up ops and records how
	// long both took.
	pass := func() (instance, error) {
		start := time.Now()
		inst, err := setup(e)
		if err != nil {
			return nil, fmt.Errorf("bench: %s set-up: %w", spec.Workload, err)
		}
		for i := 0; i < spec.Warmup; i++ {
			if _, err := inst.op(nil); err != nil {
				inst.close()
				return nil, fmt.Errorf("bench: %s warm-up op: %w", spec.Workload, err)
			}
		}
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
		return inst, nil
	}
	early, spread := setupPasses, spreadPasses
	if spec.Traced {
		early, spread = 1, 0
	}
	var inst instance
	for i := 0; i < early; i++ {
		if inst != nil {
			inst.close()
		}
		var err error
		if inst, err = pass(); err != nil {
			return nil, err
		}
	}
	defer inst.close()

	var tr *tracer
	if spec.Traced {
		tr = newTracer()
	}
	timed := func(tr *tracer) {
		cpu0, start := cpuSeconds(), time.Now()
		st, err := inst.op(tr)
		d, cpu := time.Since(start).Seconds(), cpuSeconds()-cpu0
		res.Attempted++
		switch {
		case err != nil:
			res.Failed++
			res.Failures = append(res.Failures, err.Error())
		case tr != nil:
			res.TracedOpS = append(res.TracedOpS, d)
		default:
			res.OpS = append(res.OpS, d)
			res.OpCPUS = append(res.OpCPUS, cpu)
			res.OpSteps = append(res.OpSteps, st.steps)
		}
	}

	// The passes spread through the loop allocate too: what they do is
	// taken out of the loop's allocation counts.
	var before, after, pass0, pass1 runtime.MemStats
	var passMallocs, passBytes uint64
	runtime.ReadMemStats(&before)
	loopStart := time.Now()
	// progress is how far through the timed loop op i starts.
	progress := func(i int) float64 {
		switch {
		case spec.Seconds > 0 && i < minOps:
			return 0
		case spec.Seconds > 0:
			return time.Since(loopStart).Seconds() / spec.Seconds
		case i >= spec.Ops:
			return 1
		}
		return float64(i) / float64(spec.Ops)
	}
	for i, passes := 0, 0; ; i++ {
		p := progress(i)
		if p >= 1 {
			break
		}
		if passes < spread && p >= float64(passes+1)/float64(spread+1) {
			passes++
			runtime.ReadMemStats(&pass0)
			extra, err := pass()
			if err != nil {
				return nil, err
			}
			extra.close()
			runtime.ReadMemStats(&pass1)
			passMallocs += pass1.Mallocs - pass0.Mallocs
			passBytes += pass1.TotalAlloc - pass0.TotalAlloc
		}
		timed(nil)
		if tr != nil {
			tr.op = i
			timed(tr)
		}
	}
	runtime.ReadMemStats(&after)
	res.Mallocs = after.Mallocs - before.Mallocs - passMallocs
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc - passBytes

	if spec.Traced && len(res.OpS) > 0 {
		res.Ledger = map[string]float64{}
		res.Attempted++
		if err := inst.ledger(res.Ledger, median(res.OpS), spec.Reps); err != nil {
			res.Failed++
			res.Failures = append(res.Failures, "ledger: "+err.Error())
		}
		res.Spans = tr.spans
	}
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM;
// getrusage reports it in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// workDir creates a fresh work directory under bench/out for one
// process; the caller removes it.
func workDir(root string) (string, error) {
	out := OutDir(root)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "work-")
}
