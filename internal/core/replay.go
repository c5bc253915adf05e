package core

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/decision"
)

// This file implements deterministic bug reproduction: every reported
// Bug carries a ReproToken — a self-contained base64 witness holding the
// seed, configuration and program digests, and the buggy execution's
// decision path — and Replay re-runs exactly that execution. Before a
// token is handed out, a greedy minimization pass prunes injected
// failures the bug does not actually need, so the replayed trace shows
// the minimal crash scenario (in the spirit of Jaaru-style replay: a
// recorded decision path is the whole execution).

// reproToken is the JSON payload inside a Bug.ReproToken.
type reproToken struct {
	V       int    `json:"v"`
	Seed    int64  `json:"seed"`
	Config  string `json:"config"`
	Program string `json:"program"`
	Path    []byte `json:"path"`
}

func encodeReproToken(t reproToken) string {
	t.V = 1
	raw, err := json.Marshal(t)
	if err != nil {
		// Marshalling a struct of scalars and bytes cannot fail.
		internalPanic(fmt.Sprintf("encoding repro token: %v", err))
	}
	return base64.RawURLEncoding.EncodeToString(raw)
}

func decodeReproToken(s string) (*reproToken, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("not base64: %w", err)
	}
	var t reproToken
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("corrupt payload: %w", err)
	}
	if t.V != 1 {
		return nil, fmt.Errorf("unsupported token version %d", t.V)
	}
	return &t, nil
}

// Replay re-runs exactly the execution a Bug's ReproToken witnessed,
// observing it so the result's bug carries the last traceDepth lines of its
// text trace (cfg.Observer, if set, sees the whole stream). The token pins
// the seed; the remaining exploration-relevant configuration (GPF, Poison,
// MaxEventsPerExec, Reduction, RaceDetect and its UnflushedLines, and the
// region size, step limit and drain bias, which only tests change) and the
// program structure must match the recording run, and a mismatch is rejected
// with a descriptive error. PrefixFork is not part of the digest — a
// replay always re-executes in full regardless of its setting. The
// replay is a single execution; Stats.Executions is 1.
func Replay(token string, cfg Config, program func(*Program)) (*Result, error) {
	if program == nil {
		return nil, setupError{"nil program"}
	}
	tok, err := decodeReproToken(token)
	if err != nil {
		return nil, fmt.Errorf("cxlmc: bad repro token: %w", err)
	}
	steps, err := decision.DecodePath(tok.Path)
	if err != nil {
		return nil, fmt.Errorf("cxlmc: bad repro token path: %w", err)
	}
	cfg.Seed = tok.Seed
	last := &lastOps{next: cfg.Observer}
	cfg.Observer = last
	cfg.fillDefaults()
	if d := configDigest(cfg); d != tok.Config {
		return nil, fmt.Errorf("cxlmc: repro token was recorded under a different configuration (digest %s, this run %s): %s must match the recording run",
			tok.Config, d, digestFieldList())
	}
	progDigest, err := programDigestOf(cfg, program)
	if err != nil {
		return nil, err
	}
	if progDigest != tok.Program {
		return nil, fmt.Errorf("cxlmc: repro token does not match this program (token digest %s, program digest %s): the program structure changed since the bug was recorded",
			tok.Program, progDigest)
	}
	res, _, err := replayPath(cfg, program, progDigest, steps, false)
	if err == nil && res.Buggy() {
		trace := last.lines()
		for i := range res.Bugs {
			res.Bugs[i].Trace = trace
		}
	}
	return res, err
}

// replayPath runs program for exactly one execution along the recorded
// decision path, returning the result and the path actually executed
// (which, under lenient replay, may differ from the input). The executed
// path is what makes a minimized token exactly replayable.
func replayPath(cfg Config, program func(*Program), progDigest string, steps []decision.Step, lenient bool) (result *Result, executed []decision.Step, err error) {
	ck := newChecker(cfg, program)
	ck.tree = ck.spareTree(steps, lenient)
	ck.cfgDigest, ck.progDigest, ck.replaying = configDigest(cfg), progDigest, !lenient
	start := time.Now()
	if cfg.MaxTime > 0 {
		ck.deadline = start.Add(cfg.MaxTime)
	}
	defer func() {
		defer ck.release()
		if v := recover(); v != nil {
			if se, ok := v.(setupError); ok {
				result, executed, err = nil, nil, se
				return
			}
			if iv, ok := v.(internalInvariant); ok {
				result, executed, err = nil, nil, ck.newInternalError(iv.msg)
				return
			}
			// A strict replay can diverge in scheduler context (commits
			// and loads decide there) when the program's structure matches
			// the token but its behaviour does not — e.g. the bug was
			// fixed without adding or removing a machine, thread or
			// allocation. Report it as a bad token, not a crash.
			if d, ok := v.(decision.Divergence); ok {
				result, executed, err = nil, nil, fmt.Errorf(
					"cxlmc: repro token does not replay against this program (%v): the program's behaviour changed since the bug was recorded", d)
				return
			}
			panic(v)
		}
	}()
	ck.tree.Begin()
	ck.execNo = 1
	ck.runOneExecution()
	if ck.replayDiverged != nil {
		return nil, nil, fmt.Errorf(
			"cxlmc: repro token does not replay against this program (%v): the program's behaviour changed since the bug was recorded", *ck.replayDiverged)
	}
	if ck.internalErr != nil {
		return nil, nil, ck.internalErr
	}
	ck.stats.Add(treeCounters(ck.tree))
	stats := Stats{Counters: ck.stats.Counters, Elapsed: time.Since(start)}
	return &Result{Stats: stats, Bugs: ck.stats.Bugs, Seed: cfg.Seed, GPF: cfg.GPF}, ck.tree.Path(), nil
}

// minimizeBugTokens rewrites every found bug's repro token after the
// exploration finished: injected failures (KindFailure branches taken)
// that the bug does not need are greedily pruned, deepest first, as long
// as the bug still reproduces with the same kind and message. Each
// candidate pruning costs one replayed execution. It runs after the parallel engine merged all workers' bugs, so it is a
// free function over the merged slice rather than a Checker method.
func minimizeBugTokens(cfg Config, program func(*Program), progDigest string, bugs []Bug) {
	if len(bugs) == 0 || progDigest == "" {
		return
	}
	// Strip run-control knobs that must not fire during minimization
	// replays — the caller's op stream is of the executions explored, not
	// of these; none of them are part of the config digest.
	cfg.Observer = nil
	cfg.Stop = nil
	cfg.CheckpointPath = ""
	cfg.MaxTime = 0
	for i := range bugs {
		if bugs[i].ReproToken == "" {
			continue
		}
		bugs[i].ReproToken = minimizeToken(cfg, program, progDigest, bugs[i])
	}
}

// minimizeToken returns bug's token with unneeded injected failures
// pruned, or the token unchanged when nothing can be pruned.
func minimizeToken(cfg Config, program func(*Program), progDigest string, bug Bug) string {
	tok, err := decodeReproToken(bug.ReproToken)
	if err != nil {
		return bug.ReproToken
	}
	steps, err := decision.DecodePath(tok.Path)
	if err != nil {
		return bug.ReproToken
	}
	changed := false
	for again := true; again; {
		again = false
		for i := len(steps) - 1; i >= 0; i-- {
			if steps[i].Kind != decision.KindFailure || steps[i].Chosen != 1 {
				continue
			}
			cand := append([]decision.Step(nil), steps...)
			cand[i].Chosen = 0
			res, executed, err := replayPath(cfg, program, progDigest, cand, true)
			if err != nil || !reproduces(res, bug) {
				continue
			}
			// The flip (plus whatever the lenient replay re-derived)
			// still hits the bug: adopt the executed path and rescan.
			// Each adoption removes at least one injected failure and
			// introduces none (fresh decisions default to branch 0), so
			// this terminates.
			steps = executed
			changed = true
			again = true
			break
		}
	}
	if !changed {
		return bug.ReproToken
	}
	return encodeReproToken(reproToken{
		Seed: tok.Seed, Config: tok.Config, Program: tok.Program,
		Path: decision.EncodePath(steps),
	})
}

// reproduces reports whether res contains bug (same kind and message).
func reproduces(res *Result, bug Bug) bool {
	for _, b := range res.Bugs {
		if b.Kind == bug.Kind && b.Message == bug.Message {
			return true
		}
	}
	return false
}
