package core

import (
	"sync"
	"time"

	"repro/internal/decision"
	"repro/internal/obs"
)

// Ledger keeps an exploration's books: its identity, what a resumed
// checkpoint handed down, the resilience record, the checkpoint cadence, and
// the close-out that turns a frontier at rest into a Result and a final
// checkpoint. Whoever owns a frontier owns one — the engine its work queue,
// the distributed coordinator its MemFrontier — and calls it at its own
// boundaries: Due and Checkpoint for the periodic write, Close at the end.
type Ledger struct {
	cfg        Config
	program    func(*Program)
	cfgDigest  string
	progDigest string
	// om and tracer count and trace checkpoint I/O, and the engine's the rest.
	om     coreMetrics
	tracer *obs.Tracer
	// start is when this process took the exploration up, prior the time before.
	start   time.Time
	prior   time.Duration
	resumed bool
	res     Resilience
	// merged reports bugs, found by more than one worker, in a stable order.
	merged bool
	// inMemory makes from stand in for the checkpoint file (nil: nothing to
	// resume), handed back at the end with tokens unminimized. See Continue.
	inMemory bool
	from     *Checkpoint

	// writing makes writes one at a time; the final write sets closed.
	writing     sync.Mutex
	closed      bool
	lastCPExecs int
	lastCPTime  time.Time
}

// OpenLedger opens the books of an exploration whose frontier the caller
// keeps, as the distributed coordinator does. It resumes cfg.CheckpointPath
// as Run does and returns the unit snapshots to seed the frontier with (none
// if the exploration is complete) and the tally they were reached at.
// Checkpoint I/O is counted on cfg.Obs and traced on tracer.
func OpenLedger(cfg Config, program func(*Program), tracer *obs.Tracer) (*Ledger, [][]byte, Tally, error) {
	cfgDigest, progDigest, err := ExplorationDigests(cfg, program)
	if err != nil {
		return nil, nil, Tally{}, err
	}
	cfg.fillDefaults()
	l := &Ledger{
		cfg: cfg, program: program, cfgDigest: cfgDigest, progDigest: progDigest,
		om:     coreMetrics{checkpointMetrics: newCheckpointMetrics(cfg.Obs)},
		tracer: tracer, start: time.Now(), merged: true,
	}
	trees, t, err := l.resume()
	if err != nil {
		return nil, nil, Tally{}, err
	}
	units := make([][]byte, len(trees))
	for i, tr := range trees {
		units[i] = tr.Snapshot()
	}
	return l, units, t, nil
}

// Digests returns the configuration and program digests that identify the
// exploration.
func (l *Ledger) Digests() (cfgDigest, progDigest string) { return l.cfgDigest, l.progDigest }

// Elapsed is the wall-clock time the exploration has taken, resumptions
// included.
func (l *Ledger) Elapsed() time.Duration { return l.prior + time.Since(l.start) }

// resume takes up the checkpoint — the file, or the one handed to Continue —
// and returns the units to explore and the tally they were reached at: the
// whole tree when there is nothing to resume, none when the checkpointed
// exploration is complete.
func (l *Ledger) resume() (units []*decision.Tree, t Tally, err error) {
	var r *inheritance
	var quarantined bool
	if !l.inMemory {
		r, quarantined, err = resumeCheckpoint(l.cfg.CheckpointPath, l.cfg.Seed, l.cfgDigest, l.progDigest, l.cfg.Chaos)
	} else if l.from != nil {
		r, err = l.from.resume("handed to Continue", l.cfg.Seed, l.cfgDigest, l.progDigest)
	}
	if err != nil {
		return nil, t, err
	}
	if quarantined {
		l.res.Quarantined = true
		l.om.cpQuarantines.Inc()
		l.tracer.RecordS(-1, obs.EvCheckpointQuarantine, 0, l.cfg.CheckpointPath)
	}
	l.lastCPTime = l.start
	if r == nil {
		return []*decision.Tree{decision.NewTree()}, t, nil
	}
	t, l.res, l.prior, l.resumed = r.total, r.res, r.elapsed, true
	l.lastCPExecs = t.Executions
	l.om.cpErrors.Add(int64(l.res.CheckpointErrors))
	if r.complete {
		return nil, t, nil
	}
	return r.units, t, nil
}

// Due reports whether the checkpoint cadence has come round for an
// exploration standing at executions: CheckpointEvery executions or
// CheckpointInterval since the last write.
func (l *Ledger) Due(executions int) bool {
	if l.cfg.CheckpointPath == "" {
		return false
	}
	l.writing.Lock()
	defer l.writing.Unlock()
	return l.cfg.CheckpointEvery > 0 && executions-l.lastCPExecs >= l.cfg.CheckpointEvery ||
		l.cfg.CheckpointInterval > 0 && time.Since(l.lastCPTime) >= l.cfg.CheckpointInterval
}

// Checkpoint writes the periodic checkpoint of the frontier as frontier reads
// it: the tally, net of the points the units embed, and every unexplored
// unit, from one read. No write comes after Close's. A failed write is
// counted and returned; the file installed before it is intact, so the
// exploration goes on.
func (l *Ledger) Checkpoint(frontier func() (Tally, [][]byte)) error {
	l.writing.Lock()
	defer l.writing.Unlock()
	if l.closed {
		return nil
	}
	t, units := frontier()
	err := writeCheckpointFile(l.cfg.CheckpointPath, l.envelope(t, units, false, false), l.cfg.Chaos, l.om, l.tracer)
	l.lastCPExecs, l.lastCPTime = t.Executions, time.Now()
	if err != nil {
		l.res.CheckpointErrors++
		l.om.cpErrors.Inc()
	}
	return err
}

// Close ends the exploration with the frontier at rest — t accepted, left
// the units unexplored — and returns its Result: bugs sorted, tokens
// minimized, the leftover units' points counted in. The final checkpoint
// comes back too (Continue hands it on); a run that keeps a file must write
// it, or the remaining frontier would be lost, so that failure is the run's.
func (l *Ledger) Close(t Tally, left []*decision.Tree, complete, interrupted bool) (*Checkpoint, *Result, error) {
	l.writing.Lock()
	defer l.writing.Unlock()
	l.closed = true
	if l.merged {
		SortBugs(t.Bugs)
	}
	if !l.inMemory {
		// Whoever chains Continue calls minimizes the merged bug set once.
		minimizeBugTokens(l.cfg, l.program, l.progDigest, t.Bugs)
	}
	res := l.result(t, left, complete, interrupted)
	if !l.inMemory && l.cfg.CheckpointPath == "" {
		return nil, res, nil
	}
	units := make([][]byte, len(left))
	for i, tr := range left {
		units[i] = tr.Snapshot()
	}
	cp := l.envelope(t, units, complete, interrupted)
	if !l.inMemory {
		if err := writeCheckpointFile(l.cfg.CheckpointPath, cp, l.cfg.Chaos, l.om, l.tracer); err != nil {
			return nil, nil, err
		}
	}
	return cp, res, nil
}

func (l *Ledger) result(t Tally, left []*decision.Tree, complete, interrupted bool) *Result {
	c := t.Counters
	for _, tr := range left {
		c.Add(treeCounters(tr))
	}
	stats := Stats{Counters: c, Resilience: l.res, Elapsed: l.Elapsed(),
		Complete: complete, Interrupted: interrupted, Resumed: l.resumed}
	return &Result{Stats: stats, Bugs: t.Bugs, Seed: l.cfg.Seed, GPF: l.cfg.GPF}
}

func (l *Ledger) envelope(t Tally, units [][]byte, complete, interrupted bool) *Checkpoint {
	return NewCheckpoint(l.cfg.Seed, l.cfgDigest, l.progDigest, units, t, l.res, l.Elapsed(), complete, interrupted)
}
