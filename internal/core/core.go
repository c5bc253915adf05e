// Package core implements the CXLMC model checker: exhaustive exploration
// of the crashing executions of simulated CXL shared-memory programs
// (paper §3–§5).
//
// A program is a set of simulated machines, each running one or more
// threads against a shared, simulated CXL memory region with x86-TSO
// semantics plus clflush/clflushopt/sfence/mfence. The checker repeatedly
// re-executes the program under a deterministic schedule, exploring a
// decision tree whose branch points are
//
//   - which store each post-failure load reads from (cache-line
//     constraint refinement, Algorithms 3–4, lazily per §4.5), and
//   - whether a machine fails instead of committing a flush that would
//     narrow future post-failure read results (Algorithm 5, line 16).
//
// Machines fail independently and failed machines lose exactly the
// contents of their own caches (unless GPF mode is enabled, §6.2).
package core

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"repro/internal/chaos"
	"repro/internal/memmodel"
	"repro/internal/obs"
)

// Addr is a byte address in the simulated CXL region (0 is the null
// pointer; dereferencing it is reported as a segmentation fault).
type Addr = memmodel.Addr

// MachineID identifies a simulated compute node.
type MachineID = memmodel.MachineID

// Switch is a three-state feature toggle whose zero value means "use the
// feature's default". Features that are on by default stay controllable
// from a zero-valued Config without inverting the field's meaning.
type Switch uint8

// Switch states.
const (
	// SwitchDefault takes the feature's documented default.
	SwitchDefault Switch = iota
	// SwitchOn enables the feature explicitly.
	SwitchOn
	// SwitchOff disables the feature explicitly.
	SwitchOff
)

func (s Switch) String() string {
	switch s {
	case SwitchOn:
		return "on"
	case SwitchOff:
		return "off"
	}
	return "default"
}

// MarshalText encodes the switch as "on", "off" or "default", so Switch
// fields round-trip through JSON job specs and config files as the same
// words the CLI flags use.
func (s Switch) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText parses "on", "off", "default" or "" (the last two both
// meaning SwitchDefault). Anything else is rejected with an error naming
// the accepted values.
func (s *Switch) UnmarshalText(text []byte) error {
	switch string(text) {
	case "on":
		*s = SwitchOn
	case "off":
		*s = SwitchOff
	case "", "default":
		*s = SwitchDefault
	default:
		return fmt.Errorf("cxlmc: bad switch value %q: want on, off or default", text)
	}
	return nil
}

// Config controls a model-checking run.
type Config struct {
	// Seed fixes the thread schedule and store-buffer commit timing.
	// CXLMC model checks crash non-determinism only (§3.2); different
	// seeds explore different interleavings, fuzzing-style (§4.6).
	Seed int64

	// GPF simulates an always-successful Global Persistent Flush: a
	// failing machine's cache is written back in full, so executions
	// follow plain TSO even across failures (§6.2). Failures are still
	// injected at the same points.
	GPF bool

	// Poison enables the CXL memory-poisoning failure model (§4.2 side
	// note): reading a cache line whose latest store by a failed machine
	// may have been lost raises a poison error instead of returning stale
	// data. Off by default, as in the paper's evaluation.
	Poison bool

	// MaxExecutions bounds the exploration; 0 means unlimited (explore
	// the full decision tree).
	MaxExecutions int

	// MaxTime bounds the exploration's wall-clock time; 0 means
	// unlimited. The run stops after the first execution that exceeds
	// the budget (Complete stays false).
	MaxTime time.Duration

	// MaxStepsPerExec guards against runaway executions (livelock in the
	// checked program); 0 means the default of 2,000,000.
	MaxStepsPerExec int

	// ContinueAfterBug keeps exploring after the first bug (deduplicated
	// by message). The paper's tool stops at the first bug, which is the
	// default.
	ContinueAfterBug bool

	// MemSize is the size of the simulated CXL region in bytes; 0 means
	// the default of 16 MiB.
	MemSize uint64

	// CommitChance is the percentage chance (0–100) that a scheduler step
	// drains a buffered store/flush instead of running a thread, when
	// both are possible. It shapes the TSO reordering window; 0 means the
	// default of 25.
	CommitChance int

	// EagerReadSet disables the paper's §4.5 optimization: loads
	// materialize the full Algorithm 3 read-from set (with per-candidate
	// failure sets) and branch n-ary over it, instead of searching
	// lazily with binary decision points. Exploration is equivalent;
	// only the cost per load differs. Exists for the ablation benchmark.
	EagerReadSet bool

	// CheckpointPath names a file the checker writes crash-safe
	// exploration checkpoints to (temp file + rename). When the file
	// already exists at the start of a run, the run transparently resumes
	// from it; a checkpoint written for a different seed, configuration
	// or program is rejected with a descriptive error. A final checkpoint
	// is written whenever the run stops, so an interrupted (or killed)
	// exploration can always be continued.
	CheckpointPath string

	// CheckpointEvery writes a checkpoint each time this many executions
	// complete since the last one; 0 disables the execution-count cadence.
	CheckpointEvery int

	// CheckpointInterval writes a checkpoint whenever this much
	// wall-clock time has passed since the last one; 0 disables the
	// timed cadence. When CheckpointPath is set and both cadences are 0,
	// a 30-second interval is used.
	CheckpointInterval time.Duration

	// Stop, when non-nil, requests graceful interruption: when the
	// channel is closed (or sent to), the run stops at the next execution
	// boundary, writes a final checkpoint (if CheckpointPath is set) and
	// returns with Stats.Interrupted true. Nothing watches the channel:
	// workers poll it at every execution boundary and before claiming a
	// unit, so a stop is noticed within one execution (WedgeTimeout bounds
	// that). cmd/cxlmc wires SIGINT here.
	Stop <-chan struct{}

	// Workers is the number of exploration workers that check independent
	// decision-tree subtrees concurrently. 0 means GOMAXPROCS. Each worker
	// owns a private simulation (memory, scheduler, RNG), so executions
	// themselves are untouched; only the order subtrees are visited in
	// changes. For a run that completes the tree, Executions and the
	// decision-point counts are identical for every worker count, and the
	// distinct-bug set (with replayable tokens) is too; Bug.Execution
	// ordinals and which-duplicate-wins may differ. Workers is forced to 1
	// when Observer is set (an interleaved op stream would be useless) and
	// is not part of the checkpoint identity: a checkpoint written with one
	// worker count resumes under any other.
	Workers int

	// MemBudgetBytes is a soft heap budget for the whole exploration; 0
	// means unbounded. When the process heap exceeds it, a governor in
	// the parallel coordinator degrades gracefully rather than letting
	// the run be OOM-killed: pooled per-execution arenas are released,
	// and if the heap is still over budget at the next sample the run
	// stops with a valid final checkpoint and Stats.Degraded set. (The
	// frontier is not worth evicting: CXLMC is stateless, so a queued
	// unit is a decision path of a few hundred bytes.) The budget governs
	// the checker's own memory, not the simulated region (MemSize); it
	// never changes WHAT is explored, only how much of it this process
	// gets through.
	MemBudgetBytes uint64

	// GovernorEvery is the governor's sampling cadence in executions;
	// the worker crossing the boundary samples heap use and escalates
	// while the budget stays exceeded. 0 means the default of 256. Only
	// meaningful with MemBudgetBytes set.
	GovernorEvery int

	// MaxEventsPerExec bounds the decision points a single execution may
	// create; 0 means unlimited. A pathological program whose one
	// execution's crash state-space blows up (thousands of failure and
	// read-from points before the program even terminates) becomes a
	// structured BugResourceExhausted diagnosis instead of an
	// out-of-memory wedge. Like MaxStepsPerExec it is part of the
	// exploration semantics (it prunes the tree), so it participates in
	// the checkpoint/repro-token configuration digest.
	MaxEventsPerExec int

	// Chaos, when non-nil, injects deterministic faults into the
	// checker's own resilience machinery: transient or permanent I/O
	// errors behind checkpoint file operations, torn writes, bit flips on
	// read, worker stalls and spurious wakeups. It exists to prove the
	// error paths work — chaos never changes the explored execution set,
	// only how bumpy the road there is. See package repro/internal/chaos.
	Chaos *chaos.Injector

	// WedgeTimeout bounds the wall-clock time a simulated thread may run
	// between instruction boundaries. A checked-program callback that
	// blocks outside the simulated API (a real channel receive, a syscall)
	// hangs the lock-step scheduler forever without it; with it, the
	// watchdog abandons the thread, reports a BugWedged, and the run
	// continues. The watchdog does not time each turn: it looks once per
	// WedgeTimeout whether the baton has moved since its last look, so a
	// thread stalled for d is reported after more than d and at most 2d,
	// and an execution of many short instructions may take any multiple of
	// it. It must be generous relative to a single callback's compute time
	// (the watchdog cannot tell "blocked" from "still computing"); values
	// under a second are for tests. 0 disables the watchdog, unless
	// MaxTime is set — the same mechanism makes MaxTime effective
	// mid-execution.
	WedgeTimeout time.Duration

	// Obs, when non-nil, is the metrics registry the run instruments
	// itself into: execution/step/bug counters, decision-point counters by
	// kind, frontier and governor gauges, checkpoint counters, and
	// step/depth histograms. A nil registry is the zero-cost
	// "observability off" mode — every instrument call is a nil check.
	// The registry is caller-owned, so several runs may share one and the
	// caller can read or serve it after Run returns. Observability knobs
	// never participate in the checkpoint configuration digest: a run
	// resumes identically with metrics on or off.
	Obs *obs.Registry

	// MetricsAddr, when non-empty, starts a live status server on the
	// address for the duration of the run, serving /metrics (Prometheus
	// text format), /statusz (the engine's Progress snapshot as JSON) and
	// /debug/pprof. The server binds before exploration starts, so a bad
	// address fails the run up front. Use ":0" to bind an ephemeral port
	// and OnStatusServer to learn it. Implies Obs: when MetricsAddr is set
	// and Obs is nil, the run creates a private registry.
	MetricsAddr string

	// OnStatusServer, when non-nil, is called once with the status
	// server's bound "host:port" address before exploration starts. Only
	// meaningful with MetricsAddr set.
	OnStatusServer func(addr string)

	// EventTrace, when non-nil, enables the structured exploration event
	// trace: execution boundaries, decision-point creation, backtracks,
	// bugs, checkpoint/governor activity, chaos fault injections and
	// worker scheduling events are recorded into bounded per-worker ring
	// buffers (eventBufferSize events each) and drained to this writer as
	// JSON lines. Unlike Observer it does not force Workers to 1 —
	// events carry the worker index. The
	// writer must be safe for use from the draining goroutine; a write
	// error silences the sink without disturbing the run.
	EventTrace io.Writer

	// ProgressEvery emits a Progress snapshot to OnProgress at this
	// wall-clock cadence; 0 disables periodic progress. A final snapshot
	// is always emitted when the run stops, so a caller that only wants
	// end-of-run numbers can set OnProgress alone.
	ProgressEvery time.Duration

	// OnProgress, when non-nil, receives Progress snapshots: one per
	// ProgressEvery tick, one per StatusRequests poke, and one when the
	// run stops. Called from the engine's monitor goroutine; it must not
	// block for long and must not call back into the run.
	OnProgress func(Progress)

	// StatusRequests, when non-nil, asks for an on-demand Progress
	// snapshot each time a value arrives: the engine emits to OnProgress
	// without stopping the run. cmd/cxlmc wires SIGUSR1 here.
	StatusRequests <-chan struct{}

	// Reduction controls state-space reduction (default on): decision
	// points whose alternative branch provably cannot change the bug set
	// are skipped before being created, in the spirit of sleep-set/
	// persistent-set partial-order reduction adapted to the relaxed
	// crash-consistency model. Two rules apply, both conservative:
	//
	//   - observer-free failures: a failure-injection point is skipped
	//     when every thread outside the flushing machine has already
	//     finished or belongs to a failed machine — the failure branch
	//     would kill all remaining live threads, so no load, assertion,
	//     deadlock or poison check can ever observe it;
	//   - flush-chain subsumption: when one scheduler step synchronously
	//     drains a flush buffer, only the first constraint-narrowing
	//     writeback gets a failure point — failing at a later entry loses
	//     a subset of the state failing at the first one loses.
	//
	// Read-from decisions stay exhaustive, so the explored bug set is
	// identical with reduction on or off (the parity suite and the stress
	// fuzzer assert it). Reduction changes the decision-tree shape, so it
	// participates in the checkpoint/repro-token configuration digest:
	// a token or checkpoint records which mode produced it and refuses to
	// replay or resume under the other, rather than silently consuming
	// mismatched decision nodes.
	Reduction Switch

	// PrefixFork controls prefix-fork incremental replay (default on):
	// sibling executions share their decision prefix up to the deepest
	// backtrack point, so instead of re-deriving every scheduler choice
	// from scratch, the checker logs each step's effect during the
	// previous execution and fast-replays the shared prefix from the log
	// — skipping the runnable/committable scans and the per-load
	// candidate search, while still applying every memory-model mutation
	// deterministically. The executions themselves are bit-identical
	// (the fast path validates the RNG stream and decision cursor as it
	// goes), so PrefixFork is pure performance and deliberately excluded
	// from the configuration digest — unlike Reduction it cannot change
	// the tree shape. Strict Replay and Poison mode fall back to full
	// re-execution. Saved work is visible as Stats.PrefixForks/StepsSaved.
	PrefixFork Switch

	// RaceDetect controls the dynamic happens-before race detector
	// (default off at the library level; cmd/cxlmc turns it on for
	// exploration): per-thread vector clocks joined on mutex
	// acquire/release, locked RMW operations and thread joins, with
	// conflicting unordered plain accesses reported as BugDataRace.
	// A race report aborts its execution like any other bug, so the
	// detector changes the reachable tree shape and participates in the
	// checkpoint/repro-token configuration digest — a token recorded with
	// the detector on never replays with it off, or vice versa.
	RaceDetect Switch

	// UnflushedLines lists cache-line IDs the static pre-pass
	// (internal/analyze, "cxlvet") flagged as unflushed-publish hazards.
	// With RaceDetect on, a post-crash load that resolves on one of these
	// lines while a newer store from the failed machine was lost is
	// reported as BugUnflushedPublish. The set is digest-relevant (it
	// adds bug reports, hence aborts); fillDefaults sorts and dedupes it,
	// and clears it when the detector is off so an inert set cannot
	// perturb the digest.
	UnflushedLines []uint64

	// Observer, when non-nil, receives the op stream of the run's explored
	// executions — one OpEvent per simulated load, store, flush, fence, RMW,
	// mutex op and failure point, in issue order, and one per commit,
	// writeback, load result, machine failure and bug. The cxlvet pre-pass's
	// dry run and the text trace (TraceTo) read it; it forces Workers to 1
	// and is excluded from the configuration digest (observation never
	// changes exploration semantics).
	Observer OpObserver
}

// How many trace lines of the buggy execution Replay keeps (Bug.Trace), and
// the capacity in events of each worker's ring of the structured event
// trace (Config.EventTrace).
const (
	traceDepth      = 256
	eventBufferSize = 4096
)

func (c *Config) fillDefaults() {
	if c.MaxStepsPerExec == 0 {
		c.MaxStepsPerExec = 2_000_000
	}
	if c.MemSize == 0 {
		c.MemSize = 16 << 20
	}
	if c.CommitChance <= 0 {
		c.CommitChance = 25
	}
	if c.CommitChance > 99 {
		// Leave a residual chance of running threads or the scheduler
		// could starve programs whose buffers never empty.
		c.CommitChance = 99
	}
	if c.CheckpointPath != "" && c.CheckpointEvery == 0 && c.CheckpointInterval == 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.GovernorEvery <= 0 {
		c.GovernorEvery = 256
	}
	if c.Observer != nil {
		c.Workers = 1
	}
	if c.Reduction == SwitchDefault {
		c.Reduction = SwitchOn
	}
	if c.PrefixFork == SwitchDefault {
		c.PrefixFork = SwitchOn
	}
	if c.RaceDetect == SwitchDefault {
		c.RaceDetect = SwitchOff
	}
	if !c.raceDetectOn() {
		c.UnflushedLines = nil
	} else if len(c.UnflushedLines) > 0 {
		lines := append([]uint64(nil), c.UnflushedLines...)
		slices.Sort(lines)
		c.UnflushedLines = slices.Compact(lines)
	}
}

// reductionOn reports whether state-space reduction is enabled (after
// fillDefaults resolved the Switch).
func (c *Config) reductionOn() bool { return c.Reduction != SwitchOff }

// raceDetectOn reports whether the happens-before race detector is
// enabled (after fillDefaults resolved the Switch).
func (c *Config) raceDetectOn() bool { return c.RaceDetect == SwitchOn }

// prefixForkOn reports whether prefix-fork fast replay may be used.
// Poison mode mutates constraints during the load path's poison check, so
// it forces full replay.
func (c *Config) prefixForkOn() bool { return c.PrefixFork != SwitchOff && !c.Poison }

// BugKind classifies a reported bug.
type BugKind uint8

// Bug kinds.
const (
	// BugAssertion is a failed Thread.Assert.
	BugAssertion BugKind = iota
	// BugSegfault is an access to unallocated simulated memory (the
	// analogue of the segmentation faults the paper's missing-flush bugs
	// produce).
	BugSegfault
	// BugPanic is a Go runtime panic escaping benchmark code (e.g.
	// division by zero — Table 4 bug 2's class).
	BugPanic
	// BugDeadlock means no thread can make progress.
	BugDeadlock
	// BugPoison is a read of a poisoned cache line (Poison mode).
	BugPoison
	// BugLivelock means an execution exceeded MaxStepsPerExec: threads
	// kept running without the program terminating. Distinct from
	// BugDeadlock, where no thread could make progress at all.
	BugLivelock
	// BugWedged means a checked-program callback blocked outside the
	// simulated API for longer than the watchdog permits (WedgeTimeout),
	// so the lock-step scheduler abandoned it instead of hanging.
	BugWedged
	// BugResourceExhausted means a single execution created more
	// decision points than MaxEventsPerExec allows: the program's
	// per-execution crash state-space is blowing up, and the checker
	// diagnoses it structurally instead of exhausting memory.
	BugResourceExhausted
	// BugDataRace is a pair of conflicting plain accesses unordered by
	// happens-before, found by the dynamic race detector
	// (Config.RaceDetect). The message names both access sites.
	BugDataRace
	// BugUnflushedPublish means a crash exposed a cache line the static
	// pre-pass flagged as published-while-dirty: a post-crash load lost a
	// newer store because no flush+fence intervened before the line
	// became reachable.
	BugUnflushedPublish

	// numBugKinds is the number of bug kinds; it exists for exhaustiveness
	// tests and must stay last.
	numBugKinds
)

func (k BugKind) String() string {
	switch k {
	case BugAssertion:
		return "assertion"
	case BugSegfault:
		return "segfault"
	case BugPanic:
		return "panic"
	case BugDeadlock:
		return "deadlock"
	case BugPoison:
		return "poison"
	case BugLivelock:
		return "livelock"
	case BugWedged:
		return "wedged"
	case BugResourceExhausted:
		return "resource-exhausted"
	case BugDataRace:
		return "data-race"
	case BugUnflushedPublish:
		return "unflushed-publish"
	}
	return "unknown"
}

// Bug is one distinct bug found during exploration.
type Bug struct {
	Kind      BugKind
	Message   string
	Execution int    // 1-based execution index where first found
	Machine   string // machine name of the reporting thread, if any
	Thread    string // thread name, if any
	// Trace holds the buggy execution's most recent trace lines when Replay
	// re-ran it.
	Trace []string
	// ReproToken is a self-contained, base64-encoded witness of the buggy
	// execution: seed, configuration and program digests, and the
	// decision path. Pass it to Replay to re-run exactly this execution
	// with tracing on. Failure-injection branches that are not needed for
	// the bug to reproduce are pruned from the token before it is
	// reported.
	ReproToken string `json:",omitempty"`
}

func (b Bug) String() string {
	return fmt.Sprintf("[%s] %s (execution %d, machine %q, thread %q)",
		b.Kind, b.Message, b.Execution, b.Machine, b.Thread)
}

// Stats aggregates exploration statistics — the quantities Table 5 of the
// paper reports.
//
// Invariance contract — which fields two runs of the same program, seed
// and digest-relevant Config may be compared on. What a run explores is a
// function of those three alone; Workers, GOMAXPROCS and the host only
// decide which worker explores which subtree, and when.
//
//   - A complete run (Complete true) visits every execution exactly once,
//     so Executions, FailurePoints, ReadFromPoints, PoisonPoints, Steps,
//     Pruned, RaceReports and the set of distinct bugs (kind and message)
//     are identical for every worker count and host, with PrefixFork on or
//     off, interrupted and resumed or not, in one process or distributed.
//   - A serial run (Workers: 1 — the zero value means GOMAXPROCS, not
//     serial) is deterministic whether it completes or not: a run that
//     stops at its first bug or at MaxExecutions stops at the same
//     execution every time, so all of the above, PrefixForks, StepsSaved
//     and each Bug.Execution can be compared as well. Only the cutoffs
//     that read the clock or the heap (MaxTime, Stop, the memory
//     governor) move a serial run's stopping point.
//   - A parallel run that stops early promises only that what it reports
//     is true: every bug is one the complete run reports too, with a repro
//     token that replays. How far the other workers had got when one of
//     them stopped the run — Executions and every other counter — depends
//     on timing and must not be compared between runs.
//   - Never invariant: Elapsed; across worker counts PrefixForks and
//     StepsSaved (a worker adopting a subtree starts without a prefix
//     log), Bug.Execution and the order bugs are discovered in (Result.Bugs
//     is sorted for that reason); and the operational fields from
//     Interrupted down, which describe how bumpy the road was.
//
// The counts arrive here through one carrier, Counters (below); DESIGN.md,
// "How a count travels", follows one from the checker to this struct.
type Stats struct {
	Counters
	// Elapsed is the wall-clock time of the whole exploration.
	Elapsed time.Duration
	// Complete reports whether the decision tree was fully explored
	// (false when MaxExecutions stopped the run or a bug aborted it).
	Complete bool
	// Interrupted reports that the run was stopped via Config.Stop.
	Interrupted bool
	// Resumed reports that the run restored earlier progress from
	// Config.CheckpointPath. Executions, Steps and Elapsed are cumulative
	// across the original run and every resumption.
	Resumed bool
	Resilience
	// LeaseReclaims counts distributed work-unit leases reclaimed after
	// their holder missed the lease deadline (a crashed or wedged
	// worker); each reclaimed unit was re-issued under a new epoch.
	LeaseReclaims int
	// RPCRetries counts distributed transport calls that were retried
	// after a transient failure (timeout, connection error, 5xx).
	RPCRetries int
	// StaleCompletions counts completion reports rejected for carrying a
	// stale lease epoch — a worker finishing a unit that had already been
	// reclaimed and re-issued. Rejection is idempotent and harmless.
	StaleCompletions int
}

// Counters are the additive exploration counts: the numbers that mean the
// same thing summed over executions, workers, leases, processes and
// resumptions. They move as one value — a checker accumulates them, the
// engine folds worker deltas into its total, and checkpoints, unit reports,
// the frontier, the dist coordinator, Stats and the metrics all take the
// whole struct — so adding a counter is adding a field here, one line in
// addScaled, its checkpoint key (checkpoint.go) and, if it is to be
// scraped, its metric (observe.go); TestCountersEveryFieldTravels fails
// while any of those is missing.
type Counters struct {
	// Executions is the number of program executions explored (#Execs).
	Executions int
	// FailurePoints is the number of failure-injection decision points
	// created (#FPoints).
	FailurePoints int
	// ReadFromPoints is the number of read-from decision points created.
	ReadFromPoints int
	// PoisonPoints is the number of poison decision points created.
	PoisonPoints int
	// Steps is the total number of scheduler steps across all executions.
	// Steps replayed through the prefix-fork fast path count normally —
	// they are real simulated steps, merely executed cheaper — so Steps
	// is invariant across worker counts and PrefixFork settings.
	Steps int64
	// Pruned counts decision points skipped by state-space reduction
	// (Config.Reduction): each one is a subtree proven incapable of
	// changing the bug set, and for failure points, one execution saved.
	Pruned int64
	// PrefixForks counts executions that resumed from a shared decision
	// prefix via the fast-replay path instead of re-running it in full.
	PrefixForks int64
	// StepsSaved counts scheduler steps that went through the prefix-fork
	// fast path — steps whose scans and candidate searches were skipped.
	StepsSaved int64
	// RaceReports counts happens-before race detector reports (data races
	// and crash-exposed unflushed publishes) before deduplication, so the
	// count is invariant across worker counts for runs that complete.
	RaceReports int64
}

// addScaled adds k times o to c. It is the one list of the fields: Add and
// Sub are its two uses.
func (c *Counters) addScaled(o Counters, k int) {
	c.Executions += k * o.Executions
	c.FailurePoints += k * o.FailurePoints
	c.ReadFromPoints += k * o.ReadFromPoints
	c.PoisonPoints += k * o.PoisonPoints
	c.Steps += int64(k) * o.Steps
	c.Pruned += int64(k) * o.Pruned
	c.PrefixForks += int64(k) * o.PrefixForks
	c.StepsSaved += int64(k) * o.StepsSaved
	c.RaceReports += int64(k) * o.RaceReports
}

// Add folds o into c.
func (c *Counters) Add(o Counters) { c.addScaled(o, 1) }

// Sub returns c minus o: what accumulated since o was read off c.
func (c Counters) Sub(o Counters) Counters {
	c.addScaled(o, -1)
	return c
}

// Resilience is the cumulative record of how bumpy the road was. Like
// Counters it describes the whole exploration, not the last process, so it
// rides in every checkpoint and a resumed run starts from it.
type Resilience struct {
	// Degraded reports that the memory-budget governor had to act:
	// pooled arenas were released, or the run was stopped early to stay
	// within MemBudgetBytes. A degraded run with Complete false covered
	// only part of the state space; its checkpoint resumes exactly where
	// it stopped.
	Degraded bool
	// CheckpointErrors counts periodic checkpoint writes that failed
	// even after retries. The run keeps exploring — the previous
	// checkpoint file is still valid and a later cadence retries — but a
	// nonzero count means resuming would lose more than one checkpoint
	// interval of progress. Only a failed FINAL checkpoint write fails
	// the run.
	CheckpointErrors int
	// Quarantined reports that a corrupt checkpoint file was found at
	// startup, renamed to <path>.corrupt, and the run started fresh
	// instead of failing.
	Quarantined bool
}

// Result is the outcome of a model-checking run.
type Result struct {
	Stats
	Bugs []Bug
	Seed int64
	GPF  bool
}

// Buggy reports whether any bug was found.
func (r *Result) Buggy() bool { return len(r.Bugs) > 0 }

// setupError wraps a panic raised during program setup (outside any
// simulated thread), which indicates misuse of the API rather than a bug
// in the checked program.
type setupError struct{ v any }

func (e setupError) Error() string { return fmt.Sprintf("cxlmc: program setup failed: %v", e.v) }

// InternalError reports a violated checker invariant (a bug in cxlmc
// itself, not in the checked program). Instead of crashing the caller's
// process, Run returns it with everything needed to reproduce: the seed
// and the base64-encoded decision path of the failing execution.
type InternalError struct {
	// Msg is the violated invariant.
	Msg string
	// Seed is the run's schedule seed.
	Seed int64
	// Execution is the 1-based index of the failing execution.
	Execution int
	// Path is the base64 (raw URL alphabet) encoding of the failing
	// execution's decision path.
	Path string
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("cxlmc: internal checker error: %s (seed %d, execution %d, decision path %s) — please report this",
		e.Msg, e.Seed, e.Execution, e.Path)
}

// internalInvariant is panicked at checker invariant violations and
// converted into an *InternalError by Run instead of crashing the
// caller's process.
type internalInvariant struct{ msg string }

// internalPanic reports a violated checker invariant.
func internalPanic(msg string) {
	panic(internalInvariant{msg})
}
