// Package cxlmc is a model checker for crash-consistency bugs in CXL
// shared-memory programs, reproducing "CXLMC: Model Checking CXL Shared
// Memory Programs" (ASPLOS 2026).
//
// # Background
//
// Compute Express Link (CXL) 3.0 lets many machines share one
// memory device cache-coherently. Each machine caches device memory; if a
// machine fails before its dirty cache lines are written back, the latest
// stores to those lines are lost — but only that machine's stores, and
// only the unflushed ones. Crash-consistent CXL data structures therefore
// combine careful store ordering with clflush/clflushopt + sfence, and
// getting this right is notoriously error prone.
//
// cxlmc systematically explores the partial-failure executions of a
// simulated multi-machine CXL program: every subset of machines failing
// at every relevant point, and every crash-consistent value each
// post-failure load could return. It uses cache-line constraint
// refinement — tracking, per machine and cache line, the interval of
// possible last-write-back times — so that the exploration visits one
// execution per observably-different crash state instead of exponentially
// many.
//
// # Quick start
//
//	res, err := cxlmc.Run(cxlmc.Config{}, func(p *cxlmc.Program) {
//		a := p.NewMachine("A")
//		b := p.NewMachine("B")
//		data := p.Alloc(8)
//		flag := p.AllocAligned(8, 64)
//		a.Thread("writer", func(t *cxlmc.Thread) {
//			t.Store64(data, 42)
//			t.CLFlush(data) // forget this line and the checker finds the bug
//			t.SFence()
//			t.Store64(flag, 1)
//			t.CLFlush(flag)
//			t.SFence()
//		})
//		b.Thread("reader", func(t *cxlmc.Thread) {
//			t.Join(a)
//			if t.Load64(flag) == 1 {
//				t.Assert(t.Load64(data) == 42, "flag set but data lost")
//			}
//		})
//	})
//
// A program is rebuilt by the setup function once per explored execution,
// so it must be deterministic apart from the Thread API calls.
//
// # Guarantees
//
// Soundness: every execution the checker reports is feasible under the
// x86-CXL memory and failure model (Px86_sim ordering plus per-machine
// cache loss), so every bug found is a real bug of the model.
// Completeness: for a fixed thread schedule (fixed Config.Seed), at least
// one execution from every reads-from equivalence class of crash
// behaviours is explored. Thread-interleaving non-determinism is not
// model checked — vary Seed to fuzz schedules, as the paper does.
package cxlmc

import (
	"fmt"
	"io"

	"repro/internal/analyze"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/gofront"
	"repro/internal/obs"
)

// Config controls a model-checking run. The zero value uses sensible
// defaults (seed 0, no GPF, no poisoning, full exploration).
type Config = core.Config

// Switch is a three-valued on/off knob whose zero value means "use the
// default" — used by Config.Reduction, which defaults to on, and
// Config.RaceDetect, which defaults to off.
type Switch = core.Switch

// Switch values.
const (
	// SwitchDefault picks the knob's documented default.
	SwitchDefault = core.SwitchDefault
	// SwitchOn enables the feature explicitly.
	SwitchOn = core.SwitchOn
	// SwitchOff disables the feature.
	SwitchOff = core.SwitchOff
)

// Program describes one execution of the checked program during setup.
type Program = core.Program

// Machine is a simulated compute node — an independent failure domain.
type Machine = core.Machine

// Thread is a simulated thread's handle for all memory accesses, fences,
// flushes and synchronization.
type Thread = core.Thread

// Mutex is the failure-aware mutex of the CXLMC runtime: automatically
// released when its owner's machine fails, and able to report that to the
// next owner so recovery can run.
type Mutex = core.Mutex

// Addr is a byte address in the simulated CXL shared-memory region.
type Addr = core.Addr

// MachineID identifies a simulated compute node.
type MachineID = core.MachineID

// Result is the outcome of a run: exploration statistics and the distinct
// bugs found.
type Result = core.Result

// Stats holds the exploration statistics (#Execs, #FPoints, ...).
type Stats = core.Stats

// Bug is one distinct bug found during exploration.
type Bug = core.Bug

// BugKind classifies a bug report.
type BugKind = core.BugKind

// Bug kinds reported by the checker.
const (
	// BugAssertion is a failed Thread.Assert.
	BugAssertion = core.BugAssertion
	// BugSegfault is an access outside allocated simulated memory.
	BugSegfault = core.BugSegfault
	// BugPanic is a runtime panic escaping checked code.
	BugPanic = core.BugPanic
	// BugDeadlock means no thread could make progress.
	BugDeadlock = core.BugDeadlock
	// BugPoison is a read of a poisoned cache line (Config.Poison).
	BugPoison = core.BugPoison
	// BugLivelock is an execution that exceeded the step limit (2,000,000
	// scheduler steps): threads kept running without terminating (distinct
	// from BugDeadlock, where nothing could make progress).
	BugLivelock = core.BugLivelock
	// BugResourceExhausted is a single execution that exceeded
	// Config.MaxEventsPerExec decision points: per-execution state-space
	// blowup, diagnosed structurally instead of walked unboundedly.
	BugResourceExhausted = core.BugResourceExhausted
	// BugDataRace is a pair of unordered conflicting accesses to the
	// same word found by the happens-before race detector
	// (Config.RaceDetect).
	BugDataRace = core.BugDataRace
	// BugUnflushedPublish is a crash that exposed a cache line the
	// cxlvet static pre-pass flagged as published without flush+fence
	// (Config.UnflushedLines).
	BugUnflushedPublish = core.BugUnflushedPublish
)

// ChaosConfig configures the deterministic fault injector: per-class
// fault probabilities, a seed, and an overall fault budget.
type ChaosConfig = chaos.Config

// ChaosInjector is a seeded, deterministic fault injector the engine
// consults around checkpoint I/O and worker scheduling; wire one in via
// Config.Chaos to harden-test long runs. A nil injector is inert.
type ChaosInjector = chaos.Injector

// ChaosStats counts the faults an injector actually delivered.
type ChaosStats = chaos.Stats

// NewChaos builds a fault injector from cfg.
func NewChaos(cfg ChaosConfig) *ChaosInjector {
	return chaos.New(cfg)
}

// MetricsRegistry is the observability subsystem's metrics registry.
// Pass one via Config.Obs to have a run instrument itself (execution,
// step and bug counters, decision-point counters, frontier and worker
// gauges, step/depth histograms); read it back with Snapshot, or serve
// it while the run goes on — WritePrometheus renders the text format, and
// cmd/cxlmc's -metrics-addr serves it at /metrics. A nil registry disables
// instrumentation at near-zero cost. One registry may be shared across
// runs; counters then accumulate.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry {
	return obs.NewRegistry()
}

// Progress is a point-in-time snapshot of a running exploration,
// delivered via Config.OnProgress every 250 ms, at an execution boundary,
// and when the run stops. cmd/cxlmc serves the last one it received at
// /statusz and prints it on SIGUSR1, so what it shows can be up to 250 ms
// old.
type Progress = core.Progress

// WorkerStatus is one worker's slice of a Progress snapshot.
type WorkerStatus = core.WorkerStatus

// InternalError is a violated checker invariant (a bug in cxlmc itself),
// returned from Run with the seed and decision path needed to reproduce
// it instead of crashing the caller's process.
type InternalError = core.InternalError

// Run explores the crashing executions of the program built by setup and
// returns the bugs found together with exploration statistics. setup is
// invoked once per execution.
//
// Callbacks must not block outside the simulated API and must not call
// runtime.Goexit: as in the paper's runtime, a callback that blocks hangs
// the run, and one that calls Goexit fails it with an error naming
// runtime.Goexit. Config.MaxTime is checked
// every 1024 scheduler steps and at execution boundaries, and Config.Stop
// at execution boundaries.
//
// Long runs can be made resilient: Config.CheckpointPath persists
// progress crash-safely and resumes transparently, and Config.Stop
// requests graceful interruption at the next execution boundary.
func Run(cfg Config, setup func(*Program)) (*Result, error) {
	return core.Run(cfg, setup)
}

// Replay re-runs exactly the execution a Bug's ReproToken witnessed and
// returns that single execution's result, the bug's Trace holding the last
// lines of its text trace. The token pins the seed and is validated against the
// configuration and the program's structure; a mismatch is rejected with
// a descriptive error.
func Replay(token string, cfg Config, setup func(*Program)) (*Result, error) {
	return core.Replay(token, cfg, setup)
}

// OpObserver, as Config.Observer, receives a run's op stream: one OpEvent per
// simulated instruction of interest when it issues and one per effect — commit,
// writeback, load result, machine failure, bug — in order. It forces Workers
// to 1. Vet's dry run and Replay deliver their one execution to it as well.
// An event's Kind prints its name; DESIGN.md lists the fifteen.
type (
	OpObserver = core.OpObserver
	OpEvent    = core.OpEvent
	OpKind     = core.OpKind
)

// TraceTo returns the observer that writes the text trace to w: a line per
// store, commit, writeback, load result, machine failure and bug report.
func TraceTo(w io.Writer) OpObserver { return core.TraceTo(w) }

// VetReport is the outcome of the cxlvet static pre-pass: the findings
// plus the number of op-stream events the dry run recorded.
type VetReport = analyze.Report

// VetFinding is one cxlvet finding.
type VetFinding = analyze.Finding

// Vet runs the cxlvet static pre-pass on the program built by setup:
// one instrumented deterministic dry run, then lock-order-cycle,
// unflushed-publish and dead-failure-point analyses over the recorded
// op stream. Arm feeds its unflushed-publish lines to a subsequent Run.
func Vet(cfg Config, setup func(*Program)) (*VetReport, error) {
	return analyze.Vet(cfg, setup)
}

// Arm completes cfg for exploring or replaying the program setup builds:
// with RaceDetect on, the Vet pre-pass runs once and the lines it flags
// become Config.UnflushedLines, so a crash that exposes one is reported
// (its findings are counted into cfg.Obs; its dry execution is not the
// run's, so it counts into no other metric and reaches no OnProgress). The
// pre-pass is deterministic and UnflushedLines is digest-relevant, so this
// is the one arming step of every mode — local run, replay and a submitted
// job: the same knobs then stamp the same digest, and tokens and
// checkpoints pass between modes. A pre-pass that fails is an error, never
// an unarmed run under a different digest.
func Arm(cfg Config, setup func(*Program)) (Config, error) {
	if cfg.RaceDetect != SwitchOn {
		return cfg, nil
	}
	rep, err := Vet(cfg, setup)
	if err != nil {
		return cfg, fmt.Errorf("cxlmc: vet pre-pass: %w", err)
	}
	cfg.UnflushedLines = rep.FlaggedLines()
	cfg.Obs.Counter("cxlmc_vet_findings_total", "cxlvet static analysis findings").Add(int64(len(rep.Findings)))
	return cfg, nil
}

// ProgramFromSource loads one Go source file written against the
// public gofront/cxl API (import "cxl" or "repro/gofront/cxl"), type-
// checks it against the supported subset, and returns the checker
// program for the named entry function (signature func(*cxl.Region);
// "" means "Program"). The returned program is an ordinary setup
// function: Run, Replay, Vet and the job server all work on it
// unchanged, and its repro tokens are interchangeable with a hand-ported
// program whose setup stream is identical.
//
// Errors are positioned file:line diagnostics (parse errors, type
// errors, unsupported constructs, a missing or mis-typed entry), never
// panics.
func ProgramFromSource(filename string, src []byte, entry string) (func(*Program), error) {
	s, err := gofront.Load(filename, src)
	if err != nil {
		return nil, err
	}
	if entry == "" {
		entry = "Program"
	}
	return s.Program(entry)
}
