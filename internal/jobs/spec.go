// Package jobs implements "checking as a service": a long-lived,
// multi-tenant job server that accepts exploration jobs over a REST API
// layered onto internal/obs's status server, queues them with per-tenant
// fairness and bounded depth, and runs them concurrently on a shared
// worker pool where every job gets its own MaxTime deadline, and a
// spec's workload fields are bounded at submit. A job is a built-in
// benchmark, gofront source or a generated program, none of which can
// block outside the simulated API, so no job needs a watchdog.
//
// Robustness is the design center. Every job's state machine
// (queued → running → done/failed/cancelled) is journaled to a
// durable store — an append-only JSONL journal plus one engine
// checkpoint file per job, reusing the checker's existing checkpoint
// format — so a kill -9 of the server followed by a restart resumes
// running jobs from their last checkpoint and re-queues queued ones with
// no loss and no duplicate results. A run that errors fails its job: the
// durable-state layer under the engine (chaos.Retry) is the one retry
// policy, and the server re-runs nothing. SIGTERM drains: stop accepting,
// checkpoint every running job, persist the queue, exit clean.
package jobs

import (
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"time"

	cxlmc "repro"
	"repro/internal/harness"
	"repro/internal/progir"
	"repro/internal/recipe"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("500ms", "2m") and unmarshals from either that form or a plain
// number of nanoseconds, so curl-written job specs stay writable by
// hand.
type Duration time.Duration

// MarshalJSON encodes the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "2s"-style strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("jobs: bad duration %q: %w", s, err)
		}
		*d = Duration(dd)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("jobs: bad duration %s: want a string like \"2s\" or nanoseconds", data)
	}
	*d = Duration(n)
	return nil
}

// GenSpec names a harness-generated random program instead of a RECIPE
// benchmark: the seed pins the program exactly (the generator is
// deterministic), and the bounds shape it. Zero bounds take the
// generator's defaults.
type GenSpec struct {
	Seed int64 `json:"seed"`
	progir.GenConfig
}

// Spec is an exploration as its owner describes it: a program — a named
// RECIPE/CXL-SHM benchmark with its workload shape, a generated recipe, or
// an inline source file — plus the knobs of the checker's Config a tenant
// may set. It is what a client submits, and it is also how cmd/cxlmc reads
// its own command line: BindFlags is the one declaration of every knob's
// flag, Program and Config the one way a run gets its program and its
// engine configuration, so the same flags mean the same run in every mode.
// Everything else (checkpoint paths and cadence, stop wiring,
// observability, chaos) belongs to whoever runs the spec, so a submitted
// one can neither touch the host filesystem nor break another tenant's job.
type Spec struct {
	// Tenant is the fairness and quota key; empty means "default".
	Tenant string `json:"tenant,omitempty"`

	// Bench names a RECIPE benchmark (CCEH, FAST_FAIR, P-ART, P-BwTree,
	// P-CLHT, P-MassTree) or a CXL-SHM case (kv, test_stress). Exactly
	// one of Bench and Gen must be set.
	Bench string `json:"bench,omitempty"`
	// Keys, InsertWorkers and Stride shape the RECIPE workload; Bugs is
	// the seeded-bug bitmask (0 = all fixed).
	Keys          int    `json:"keys,omitempty"`
	InsertWorkers int    `json:"insert_workers,omitempty"`
	Stride        int    `json:"stride,omitempty"`
	Bugs          uint32 `json:"bugs,omitempty"`
	// Gen selects a harness-generated program instead of Bench.
	Gen *GenSpec `json:"gen,omitempty"`

	// Source is an inline Go source program written against the public
	// gofront/cxl API, checked through the same front-end as `cxlmc
	// -check`. It is validated (parse, type-check, subset, entry) at
	// submit time, so a bad program is a 400 with positioned file:line
	// diagnostics, never a queued job that fails later. Capped at
	// MaxSourceBytes. Exactly one of Bench, Gen and Source is set.
	Source string `json:"source,omitempty"`
	// SourceName labels Source in diagnostics and logs (default
	// "job.go"); Entry names the entry function (default "Program").
	SourceName string `json:"source_name,omitempty"`
	Entry      string `json:"entry,omitempty"`

	// Whitelisted exploration knobs, mirroring the checker Config fields
	// of the same names. Config lays them over a base configuration.
	Seed             int64        `json:"seed,omitempty"`
	GPF              bool         `json:"gpf,omitempty"`
	Poison           bool         `json:"poison,omitempty"`
	Workers          int          `json:"workers,omitempty"`
	MaxExecutions    int          `json:"max_executions,omitempty"`
	MaxTime          Duration     `json:"max_time,omitempty"`
	MaxEventsPerExec int          `json:"max_events_per_exec,omitempty"`
	ContinueAfterBug bool         `json:"continue,omitempty"`
	Reduction        cxlmc.Switch `json:"reduction,omitempty"`
	RaceDetect       cxlmc.Switch `json:"race_detect,omitempty"`
}

// bugsFlag parses -bugs: a 32-bit mask in any base strconv accepts (0x3).
type bugsFlag uint32

func (b *bugsFlag) String() string { return fmt.Sprintf("%#x", uint32(*b)) }

func (b *bugsFlag) Set(s string) error {
	v, err := strconv.ParseUint(s, 0, 32)
	*b = bugsFlag(v)
	return err
}

// BindFlags declares on fs the flag of every program and knob field a
// command line can set (Tenant, a generated program and the source file's
// bytes are the verb's own business). What a field holds when it is bound
// is what its flag means when absent: zero takes the default Program and
// Config document, and cmd/cxlmc binds a spec with RaceDetect on.
func (sp *Spec) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&sp.Bench, "bench", sp.Bench, "benchmark name (CCEH, FAST_FAIR, P-ART, P-BwTree, P-CLHT, P-MassTree, kv, test_stress, vet-demo)")
	fs.IntVar(&sp.Keys, "keys", sp.Keys, fmt.Sprintf("total keys inserted (0 = 10; at most %d)", recipe.MaxKeys))
	fs.IntVar(&sp.InsertWorkers, "insert-workers", sp.InsertWorkers, "insert workers per machine, the simulated workload's shape (0 = 1)")
	fs.IntVar(&sp.Stride, "stride", sp.Stride, fmt.Sprintf("key stride (0 = 1; at most %d)", recipe.MaxStride))
	fs.Var((*bugsFlag)(&sp.Bugs), "bugs", "seeded-bug bitmask (e.g. 0x3); 0 = all fixed")
	fs.StringVar(&sp.Entry, "entry", sp.Entry, "entry function in the source file, signature func(*cxl.Region) (default Program)")
	fs.Int64Var(&sp.Seed, "seed", sp.Seed, "schedule seed")
	fs.BoolVar(&sp.GPF, "gpf", sp.GPF, "assume global persistent flush always succeeds")
	fs.BoolVar(&sp.Poison, "poison", sp.Poison, "enable CXL memory poisoning")
	fs.IntVar(&sp.Workers, "workers", sp.Workers, "parallel exploration workers (0 = GOMAXPROCS; for a submitted job, the server's default)")
	fs.IntVar(&sp.MaxExecutions, "max-execs", sp.MaxExecutions, "cap on explored executions (0 = exhaustive)")
	fs.DurationVar((*time.Duration)(&sp.MaxTime), "max-time", time.Duration(sp.MaxTime), "wall-clock budget for the exploration (0 = unlimited)")
	fs.IntVar(&sp.MaxEventsPerExec, "max-events", sp.MaxEventsPerExec, "cap on decision points per execution; exceeding it is reported as a resource-exhausted bug (0 = off)")
	fs.BoolVar(&sp.ContinueAfterBug, "continue", sp.ContinueAfterBug, "keep exploring after the first bug instead of stopping")
	fs.TextVar(&sp.Reduction, "reduction", sp.Reduction, "state-space reduction: prune failure points no surviving thread can observe (on|off)")
	fs.TextVar(&sp.RaceDetect, "race-detect", sp.RaceDetect, "happens-before data-race detection during exploration (on|off)")
}

// maxWorkersPerJob caps one job's exploration workers so a single
// tenant cannot monopolize the host's cores.
const maxWorkersPerJob = 16

// MaxSourceBytes caps an inline source program: big enough for any
// reasonable checked program, small enough that the journal (which
// records the full spec) stays cheap to replay on restart.
const MaxSourceBytes = 128 << 10

// validTenant keeps tenant names path- and log-safe.
func validTenant(t string) bool {
	if len(t) == 0 || len(t) > 64 {
		return false
	}
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// CheckBounds checks the spec's workload shape against its bounds: the
// one table both a submitted spec (normalize) and cmd/cxlmc's flag-driven
// run are held to. A workload is built once per execution, so its size is
// checked before anything is built: each insert worker is two simulated
// threads, every key a progress flag, a stride past recipe.MaxStride wraps
// keys, and the generator rolls the whole program when asked for it.
// gen.cells keeps the floor of three its writer/reader pattern needs: the
// range is the wire's, though the generator leaves the pattern out below
// it.
func (sp *Spec) CheckBounds() error {
	type bound struct {
		name        string
		v, min, max int
	}
	bounds := []bound{{"insert_workers", sp.InsertWorkers, 1, 8}, {"keys", sp.Keys, 1, recipe.MaxKeys},
		{"stride", sp.Stride, 1, recipe.MaxStride}}
	if g := sp.Gen; g != nil {
		bounds = append(bounds, []bound{
			{"gen.machines", g.MaxMachines, 1, 8}, {"gen.threads_per_machine", g.MaxThreadsPerMachine, 1, 8},
			{"gen.ops_per_thread", g.MaxOpsPerThread, 1, 64}, {"gen.cells", g.MaxCells, 3, 64}, {"gen.flushes", g.FlushBudget, 1, 16},
		}...)
	}
	for _, f := range bounds {
		if f.v != 0 && (f.v < f.min || f.v > f.max) {
			return fmt.Errorf("jobs: %s = %d: want 0 (the default) or %d..%d", f.name, f.v, f.min, f.max)
		}
	}
	return nil
}

// normalize validates the spec and fills its defaults. It is called at
// submit time so a bad spec is a 400, never a queued job that fails
// later.
func (sp *Spec) normalize() error {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if !validTenant(sp.Tenant) {
		return fmt.Errorf("jobs: bad tenant %q: want 1-64 characters of [a-zA-Z0-9._-]", sp.Tenant)
	}
	programs := 0
	for _, set := range []bool{sp.Bench != "", sp.Gen != nil, sp.Source != ""} {
		if set {
			programs++
		}
	}
	if programs != 1 {
		return fmt.Errorf("jobs: a spec names exactly one program: set bench, gen or source")
	}
	if err := sp.CheckBounds(); err != nil {
		return err
	}
	if sp.Source == "" && (sp.SourceName != "" || sp.Entry != "") {
		return fmt.Errorf("jobs: source_name and entry describe an inline source program; set source")
	}
	if sp.Source != "" {
		if len(sp.Source) > MaxSourceBytes {
			return fmt.Errorf("jobs: source is %d bytes; the cap is %d", len(sp.Source), MaxSourceBytes)
		}
		if sp.SourceName == "" {
			sp.SourceName = "job.go"
		}
		if sp.Entry == "" {
			sp.Entry = "Program"
		}
		if len(sp.SourceName) > 128 || !validSourceName(sp.SourceName) {
			return fmt.Errorf("jobs: bad source_name %q: want a short printable name with no path separators", sp.SourceName)
		}
	}
	// Front-load the whole front-end: a spec that queues is a spec that
	// runs.
	if _, err := sp.Program(); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if sp.Keys < 0 || sp.Stride < 0 || sp.Workers < 0 ||
		sp.MaxExecutions < 0 || sp.MaxTime < 0 || sp.MaxEventsPerExec < 0 {
		return fmt.Errorf("jobs: negative spec field")
	}
	if sp.Workers > maxWorkersPerJob {
		sp.Workers = maxWorkersPerJob
	}
	return nil
}

// validSourceName keeps the diagnostic label printable and free of
// path separators (it names the virtual file, not a host path).
func validSourceName(name string) bool {
	for _, r := range name {
		if r < 0x20 || r == 0x7f || r == '/' || r == '\\' {
			return false
		}
	}
	return true
}

// Program resolves the spec to the checker's program constructor: the
// source file through the gofront front-end (its errors are positioned
// file:line diagnostics), the generated program, or the named benchmark
// with its workload shape (zero Keys, InsertWorkers and Stride are the
// paper's 10, 1 and 1).
func (sp *Spec) Program() (func(*cxlmc.Program), error) {
	if sp.Source != "" {
		return cxlmc.ProgramFromSource(sp.SourceName, []byte(sp.Source), sp.Entry)
	}
	if sp.Gen != nil {
		return harness.Generate(sp.Gen.Seed, sp.Gen.GenConfig), nil
	}
	prog, ok := harness.ProgramByName(sp.Bench, recipe.Config{
		Keys:    sp.Keys,
		Workers: sp.InsertWorkers,
		Stride:  sp.Stride,
		Bugs:    recipe.Bug(sp.Bugs),
	})
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", sp.Bench)
	}
	return prog, nil
}

// Config lays the spec's knobs over base, the configuration of whoever runs
// the spec — the job server's Config.Base, or what cmd/cxlmc built from its
// plumbing flags — which keeps everything a spec cannot name: durable state
// (checkpoint path and cadence), stop wiring, observability, chaos. The
// knobs that identify the exploration are the spec's outright; a budget
// the spec leaves at zero is base's, and base's MaxTime caps the spec's.
func (sp *Spec) Config(base cxlmc.Config) cxlmc.Config {
	cfg := base
	cfg.Seed = sp.Seed
	cfg.GPF = sp.GPF
	cfg.Poison = sp.Poison
	if sp.Workers > 0 {
		cfg.Workers = sp.Workers
	}
	cfg.MaxExecutions = sp.MaxExecutions
	cfg.ContinueAfterBug = sp.ContinueAfterBug
	cfg.Reduction = sp.Reduction
	cfg.RaceDetect = sp.RaceDetect
	if sp.MaxTime > 0 && (base.MaxTime == 0 || time.Duration(sp.MaxTime) < base.MaxTime) {
		cfg.MaxTime = time.Duration(sp.MaxTime)
	}
	if sp.MaxEventsPerExec > 0 {
		cfg.MaxEventsPerExec = sp.MaxEventsPerExec
	}
	return cfg
}

// State is one job's position in the lifecycle state machine.
type State string

// Job states. Done, failed and cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// valid reports whether s is one of the defined states (used when
// decoding journal records).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Status is one job as the API reports it: identity, lifecycle position,
// the latest Progress snapshot while running, and the final Result —
// bugs with repro tokens included — once terminal.
type Status struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	Error  string `json:"error,omitempty"`

	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`

	Spec     *Spec           `json:"spec,omitempty"`
	Progress *cxlmc.Progress `json:"progress,omitempty"`
	Result   *cxlmc.Result   `json:"result,omitempty"`
}
