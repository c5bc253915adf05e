package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/decision"
	"repro/internal/obs"
)

// This file implements crash-consistent checkpointing of an exploration:
// the decision-tree frontier, cumulative statistics and the bugs found
// so far are written to Config.CheckpointPath (temp file + rename, so a
// kill mid-write never corrupts the previous checkpoint), and a later
// run with the same seed, configuration and program resumes exactly
// where the checkpoint left off. Identity is enforced with digests: a
// checkpoint (or repro token) recorded under a different configuration
// or program structure is rejected with a descriptive error instead of
// silently exploring garbage.

// checkpointVersion is bumped whenever the on-disk encoding changes.
// Version 2 replaced the single tree snapshot with the parallel engine's
// frontier: one snapshot per outstanding subtree unit, plus the decision
// points already accounted by completed units.
const checkpointVersion = 2

// Checkpoint is the JSON envelope written to CheckpointPath, the one format
// every Ledger writes: a single-process run resumes a coordinator's
// checkpoint and vice versa, and a dist worker hands each leased unit to
// Continue as a one-unit checkpoint. The unit snapshots inside it use the
// decision package's own versioned binary encoding (JSON base64s the bytes).
type Checkpoint struct {
	Version       int    `json:"version"`
	Seed          int64  `json:"seed"`
	ConfigDigest  string `json:"config_digest"`
	ProgramDigest string `json:"program_digest"`
	// Units holds one decision-tree snapshot per subtree still to be
	// (fully) explored. A fresh run checkpoints a single unit: the whole
	// tree.
	Units [][]byte `json:"units"`
	// BaseCreated counts the decision points (indexed by decision.Kind)
	// created by units that already completed; outstanding units carry
	// their own counts inside their snapshots.
	BaseCreated [numDecisionKinds]int `json:"base_created"`
	Executions  int                   `json:"executions"`
	Steps       int64                 `json:"steps"`
	Elapsed     time.Duration         `json:"elapsed_ns"`
	Complete    bool                  `json:"complete"`
	Interrupted bool                  `json:"interrupted"`
	// Cumulative resilience counters, carried across resumptions so
	// Stats reports the whole exploration's history, not just the last
	// process's. Added after version 2 shipped; omitted fields decode as
	// zeros, so older checkpoints stay readable without a version bump — as
	// do those carrying the "degraded" key of the deleted memory governor,
	// which decodes as nothing.
	CheckpointErrors int   `json:"checkpoint_errors,omitempty"`
	Quarantined      bool  `json:"quarantined,omitempty"`
	Bugs             []Bug `json:"bugs,omitempty"`
	// Cumulative reduction/prefix-fork counters, same omitempty contract
	// as the resilience counters above. Eligibility itself is never
	// serialized: pruning is recomputed deterministically during unit
	// replay and fork logs are rebuilt once per adopted unit.
	Pruned      int64 `json:"pruned,omitempty"`
	PrefixForks int64 `json:"prefix_forks,omitempty"`
	StepsSaved  int64 `json:"steps_saved,omitempty"`
	// Cumulative race-detector reports, same omitempty contract.
	RaceReports int64 `json:"race_reports,omitempty"`
}

// numDecisionKinds is the number of decision.Kind values (read-from,
// failure, poison).
const numDecisionKinds = 3

// configDigest fingerprints the configuration fields that shape the
// decision tree. Budget and reporting knobs (MaxExecutions, MaxTime,
// Stop, checkpoint cadence, tracing, Chaos) are
// deliberately excluded: resuming with a different budget — or without
// the chaos that interrupted the original run — is the point of
// checkpoints. MaxEventsPerExec is included because, like the step limit
// (maxSteps), it prunes the tree and therefore changes what a checkpoint or
// repro token means; so are the drain bias (commitChance) and the eager
// read path, which only tests set. Reduction is included for the same
// reason: a reduced tree has fewer failure nodes, so a path recorded in
// one mode could silently consume a wrong node in the other. PrefixFork
// is deliberately excluded — it replays the identical executions, just
// cheaper, so tokens and checkpoints are portable across its settings.
// RaceDetect (and the UnflushedLines set it arms) is included: a race
// report aborts its execution, so the detector changes the reachable
// tree shape and a token recorded in one mode must not replay in the
// other. The seed is checked separately for a clearer error message.
func configDigest(cfg Config) string {
	b := append(make([]byte, 0, 256), "cxlmc-config-v4"...)
	for _, f := range digestFields {
		b = append(append(append(b, ' '), f.label...), '=')
		b = fmt.Append(b, f.get(&cfg))
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// digestFields is the one list of what configDigest hashes, in hashing
// order: the Config field, the label it is hashed under and the value read
// off a Config that fillDefaults has resolved. The checkpoint and repro-token
// mismatch errors list exactly these names, so the advice they give cannot
// drift from what is compared. A digest-relevant field is one more row; a
// new row changes every digest, so it comes with a new version prefix.
var digestFields = []struct {
	name, label string
	get         func(*Config) any
}{
	{"GPF", "gpf", func(c *Config) any { return c.GPF }},
	{"Poison", "poison", func(c *Config) any { return c.Poison }},
	{"maxSteps", "maxsteps", func(c *Config) any { return c.maxSteps }},
	{"memSize", "memsize", func(c *Config) any { return c.memSize }},
	{"commitChance", "commit", func(c *Config) any { return c.commitChance }},
	{"eagerReadSet", "eager", func(c *Config) any { return c.eagerReadSet }},
	{"MaxEventsPerExec", "maxevents", func(c *Config) any { return c.MaxEventsPerExec }},
	{"Reduction", "reduction", func(c *Config) any { return c.reductionOn() }},
	{"RaceDetect", "racedetect", func(c *Config) any { return c.raceDetectOn() }},
	{"UnflushedLines", "flagged", func(c *Config) any { return c.UnflushedLines }},
}

// digestFieldList renders digestFields' names for an error message.
func digestFieldList() string {
	names := make([]string, len(digestFields))
	for i, f := range digestFields {
		names[i] = f.name
	}
	return strings.Join(names, "/")
}

// fingerprint hashes the structural events of program setup (machines,
// threads, allocations, initial writes, mutexes) into the program
// digest. Only programDigestOf records: every call site tests ck.fp for
// nil before it builds record's operands, so the per-execution setup
// path boxes and allocates nothing once the digest is known
// (TestSetupAllocatesNothing holds every site to that).
type fingerprint struct {
	h   hash.Hash
	buf []byte
}

// names hashes the line fmt.Println(kind, names...) prints, and nums the
// one fmt.Println(kind, a, b) prints, without boxing an operand.
func (f *fingerprint) names(kind string, names ...string) {
	f.buf = append(f.buf[:0], kind...)
	for _, n := range names {
		f.buf = append(append(f.buf, ' '), n...)
	}
	f.h.Write(append(f.buf, '\n'))
}

func (f *fingerprint) nums(kind string, a, b uint64) {
	f.buf = append(append(f.buf[:0], kind...), ' ')
	f.buf = append(strconv.AppendUint(f.buf, a, 10), ' ')
	f.h.Write(append(strconv.AppendUint(f.buf, b, 10), '\n'))
}

// programDigestOf fingerprints the program's setup-time structure by
// running setup once against a scratch checker (threads are registered
// but never started, so nothing simulated runs). A panic during setup is
// returned as the same setupError a real run would produce.
func programDigestOf(cfg Config, program func(*Program)) (digest string, err error) {
	fp := &fingerprint{h: sha256.New(), buf: make([]byte, 0, 64)}
	ck := newChecker(cfg, program)
	ck.tree, ck.fp = ck.spareTree(nil, false), fp
	defer func() {
		ck.release()
		if v := recover(); v != nil {
			if se, ok := v.(setupError); ok {
				err = se
				return
			}
			panic(v)
		}
	}()
	ck.resetExecution()
	ck.sch.Teardown()
	return hex.EncodeToString(fp.h.Sum(nil))[:16], nil
}

// errCorruptCheckpoint marks a checkpoint that cannot be decoded —
// truncated, bit-flipped, or carrying undecodable unit snapshots.
// resumeCheckpoint reacts by quarantining the file and starting fresh,
// because a corrupt checkpoint is recoverable state loss, not an
// unrecoverable configuration problem. Identity mismatches (wrong
// seed/config/program) and version skew stay hard errors: those files are
// fine, the run is asking for the wrong thing.
var errCorruptCheckpoint = errors.New("corrupt checkpoint")

func corruptCheckpoint(path string, cause error) error {
	return fmt.Errorf("cxlmc: checkpoint %s: %w: %v", path, errCorruptCheckpoint, cause)
}

// LoadCheckpoint reads and validates the checkpoint file at path. A
// missing file returns (nil, nil); an undecodable file is an error
// wrapping errCorruptCheckpoint; version skew is a hard error.
func LoadCheckpoint(path string, inj *chaos.Injector) (*Checkpoint, error) {
	raw, err := inj.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cxlmc: reading checkpoint %s: %w", path, err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return nil, corruptCheckpoint(path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("cxlmc: checkpoint %s has version %d, this build reads version %d",
			path, cp.Version, checkpointVersion)
	}
	return &cp, nil
}

// inheritance is what a checkpoint hands down to the exploration that
// resumes it.
type inheritance struct {
	// units are the subtree units still to be explored, decoded. The
	// decision points a unit created in its past life are embedded in it
	// and are NOT in total: whoever explores the unit to the end adds
	// treeCounters of it then.
	units []*decision.Tree
	// total and res are the checkpointed totals, with the points of units
	// that arrived already finished folded in.
	total    Tally
	res      Resilience
	elapsed  time.Duration
	complete bool
}

// resumeCheckpoint is the one way an exploration picks up a checkpoint
// file. It returns nil when there is nothing to resume: no path, no file, or an
// undecodable file — which is moved to <path>.corrupt (preserved for
// post-mortems, the path free for new checkpoints) and reported through
// quarantined, so the caller starts fresh. A checkpoint of another
// exploration (seed, configuration or program) or format version is an
// error. Every unit decodes or none is used: one bad snapshot marks the
// whole file corrupt, and a half-restored frontier never leaks into the
// fresh start that follows.
func resumeCheckpoint(path string, seed int64, cfgDigest, progDigest string, inj *chaos.Injector) (r *inheritance, quarantined bool, err error) {
	if path == "" {
		return nil, false, nil
	}
	cp, err := LoadCheckpoint(path, inj)
	if err == nil && cp != nil {
		r, err = cp.resume(path, seed, cfgDigest, progDigest)
	}
	if errors.Is(err, errCorruptCheckpoint) {
		if qerr := inj.Rename(path, path+".corrupt"); qerr != nil {
			return nil, false, fmt.Errorf("%w (and quarantining it failed: %v)", err, qerr)
		}
		return nil, true, nil
	}
	return r, false, err
}

// resume checks that cp — read from path, or however path describes it —
// belongs to the exploration (checkIdentity) and decodes its units and totals
// into an inheritance. The file and a checkpoint held in memory (Continue)
// both come through here.
func (cp *Checkpoint) resume(path string, seed int64, cfgDigest, progDigest string) (*inheritance, error) {
	if err := cp.checkIdentity(path, seed, cfgDigest, progDigest); err != nil {
		return nil, err
	}
	r := &inheritance{elapsed: cp.Elapsed, complete: cp.Complete}
	r.total, r.res = cp.Totals()
	for _, raw := range cp.Units {
		tr := decision.NewTree()
		if err := tr.Restore(raw); err != nil {
			return nil, corruptCheckpoint(path, err)
		}
		if tr.Done() {
			// A finished unit's points still belong in the totals.
			r.total.Add(treeCounters(tr))
		} else {
			r.units = append(r.units, tr)
		}
	}
	return r, nil
}

// writeCheckpointFile installs cp at path through ReplaceFile (temp file,
// fsync, atomic rename; transient faults retried with backoff), counting
// and tracing each retry and the installed file.
func writeCheckpointFile(path string, cp *Checkpoint, inj *chaos.Injector, om coreMetrics, tracer *obs.Tracer) error {
	raw, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("cxlmc: encoding checkpoint: %w", err)
	}
	attempt := 1
	err = inj.ReplaceFile(path, raw, func() {
		attempt++
		om.cpRetries.Inc()
		tracer.Record(-1, obs.EvCheckpointRetry, int64(attempt), 0)
	})
	if err != nil {
		return fmt.Errorf("cxlmc: writing checkpoint %s: %w", path, err)
	}
	om.cpWrites.Inc()
	tracer.Record(-1, obs.EvCheckpointWrite, int64(len(raw)), int64(cp.Executions))
	return nil
}

// checkIdentity reports whether the checkpoint read from path belongs to
// the exploration identified by seed and the two digests; the error says
// which of the three differs and what to do about it.
func (cp *Checkpoint) checkIdentity(path string, seed int64, cfgDigest, progDigest string) error {
	if cp.Seed != seed {
		return fmt.Errorf("cxlmc: checkpoint %s was written for seed %d, this run uses seed %d: delete the checkpoint or match the seed",
			path, cp.Seed, seed)
	}
	if cp.ConfigDigest != cfgDigest {
		return fmt.Errorf("cxlmc: checkpoint %s was written under a different configuration (digest %s, this run %s): %s must match",
			path, cp.ConfigDigest, cfgDigest, digestFieldList())
	}
	if cp.ProgramDigest != progDigest {
		return fmt.Errorf("cxlmc: checkpoint %s was written for a different program (digest %s, this program %s): the program structure changed since the checkpoint",
			path, cp.ProgramDigest, progDigest)
	}
	return nil
}

// Totals reads back the tally and resilience record NewCheckpoint stored.
// The tally owns a copy of the bug list, so merging into it never writes
// through to the decoded envelope.
func (cp *Checkpoint) Totals() (Tally, Resilience) {
	t := Tally{
		Counters: Counters{
			Executions:     cp.Executions,
			FailurePoints:  cp.BaseCreated[decision.KindFailure],
			ReadFromPoints: cp.BaseCreated[decision.KindReadFrom],
			PoisonPoints:   cp.BaseCreated[decision.KindPoison],
			Steps:          cp.Steps,
			Pruned:         cp.Pruned,
			PrefixForks:    cp.PrefixForks,
			StepsSaved:     cp.StepsSaved,
			RaceReports:    cp.RaceReports,
		},
		Bugs: append([]Bug(nil), cp.Bugs...),
	}
	return t, Resilience{CheckpointErrors: cp.CheckpointErrors, Quarantined: cp.Quarantined}
}

// NewCheckpoint assembles the current-version envelope of an exploration
// at rest: its identity, the snapshots of the units still outstanding, the
// totals, the wall-clock time spent so far and how the exploration stands.
// NewCheckpoint and Totals are the only place the checkpoint keys meet the
// Counters fields, so a counter carried here survives every kind of resume.
// Point counts go to BaseCreated, which by the format's contract excludes
// what the outstanding units embed: the caller passes totals net of those.
func NewCheckpoint(seed int64, cfgDigest, progDigest string, units [][]byte,
	t Tally, r Resilience, elapsed time.Duration, complete, interrupted bool) *Checkpoint {
	cp := &Checkpoint{
		Version:       checkpointVersion,
		Seed:          seed,
		ConfigDigest:  cfgDigest,
		ProgramDigest: progDigest,
		Units:         units,
		Elapsed:       elapsed,
		Complete:      complete,
		Interrupted:   interrupted,
		Executions:    t.Executions,
		Steps:         t.Steps,
		Pruned:        t.Pruned,
		PrefixForks:   t.PrefixForks,
		StepsSaved:    t.StepsSaved,
		RaceReports:   t.RaceReports,
		Bugs:          t.Bugs,

		CheckpointErrors: r.CheckpointErrors,
		Quarantined:      r.Quarantined,
	}
	cp.BaseCreated[decision.KindReadFrom] = t.ReadFromPoints
	cp.BaseCreated[decision.KindFailure] = t.FailurePoints
	cp.BaseCreated[decision.KindPoison] = t.PoisonPoints
	return cp
}

// WriteCheckpoint writes cp crash-safely (temp file + fsync + atomic
// rename, transient faults retried with backoff).
func WriteCheckpoint(path string, cp *Checkpoint, inj *chaos.Injector) error {
	return writeCheckpointFile(path, cp, inj, coreMetrics{}, nil)
}

// ExplorationDigests computes the configuration and program digests that
// identify an exploration — the same values stamped into checkpoints and
// repro tokens. The distributed coordinator and its workers compare them
// at join time so a worker checking a different program or configuration
// is rejected before it can pollute the frontier.
func ExplorationDigests(cfg Config, program func(*Program)) (cfgDigest, progDigest string, err error) {
	if program == nil {
		return "", "", setupError{"nil program"}
	}
	cfg.fillDefaults()
	progDigest, err = programDigestOf(cfg, program)
	if err != nil {
		return "", "", err
	}
	return configDigest(cfg), progDigest, nil
}
