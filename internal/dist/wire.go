// Package dist implements fault-tolerant distributed exploration: an
// HTTP coordinator that owns the frontier of subtree work units, and
// worker processes that lease units from it one at a time. A lease is a
// checkpoint: the worker resumes a one-unit checkpoint as an ordinary run
// (core.Continue) and reports what that run's final checkpoint holds — its
// totals, and as remainder whatever it left unexplored. The conversation is
// one call, turn: it says what the worker explores, hands back the lease it
// holds (done) and asks for the next unit (want) — one round trip a lease.
// A lease is a budgeted run: the worker gives each one an execution budget
// (one execution to begin with, doubled while leases finish well inside the
// TTL and nobody is waiting) and completes at the budget, so progress reaches
// the coordinator at every completion, a lease never needs extending, and the
// coordinator splits each remainder for whoever is waiting. Waiting is a turn
// parked at the coordinator: it is answered the moment a completion frees a
// unit or the run resolves.
//
// The robustness model follows the lease/ownership-recovery idiom of
// disaggregated-memory systems: a lease is named (run, unit, epoch) and
// carries a deadline. A unit leased to a crashed or wedged worker is
// reclaimed and re-issued under the next epoch once the deadline passes, run
// is drawn afresh each time a coordinator starts, and a completion naming an
// old epoch or another start's run is rejected idempotently — deterministic
// re-execution makes both harmless, and a worker rides through a coordinator
// restarted on the same address with no step of its own. Every call goes
// through obs.Client — the same request again, with jittered exponential
// backoff and a timeout per attempt, for as long as the turn's context allows —
// so transient network faults (which internal/chaos can inject: drops,
// delays, duplicates, partitions, 5xx) never kill a run;
// a holder that missed its deadline wastes at most one lease budget of work
// before its completion is answered stale.
// The coordinator keeps its frontier's books in a core.Ledger, as the engine
// does: it checkpoints at accepted completions on the engine's cadence, in the
// format single-process runs use, so a SIGKILL'd coordinator resumes losslessly
// and a single-process run can resume a coordinator's checkpoint.
package dist

import "repro/internal/core"

// turnRequest is everything a worker ever says, POSTed as JSON to /v3/turn,
// the coordinator's one worker route. Every request names the worker, carries
// a client-generated request ID (the name, the worker's own incarnation and a
// count) — the coordinator remembers recent IDs and
// replays the original answer to a duplicate delivery, so retries and
// chaos-injected duplicates cannot double-apply an effect — and identifies
// what the worker explores: a seed or digest that is not the coordinator's is
// refused with 409 on every call, before the request can touch the frontier.
// A request with neither Done nor Want is a 400.
type turnRequest struct {
	Worker        string `json:"worker"`
	ReqID         string `json:"req_id"`
	Seed          int64  `json:"seed"`
	ConfigDigest  string `json:"config_digest"`
	ProgramDigest string `json:"program_digest"`
	// Done hands back the lease the worker holds. A worker leaving on its own
	// account (its budget, Stop) sends it without Want.
	Done *turnDone `json:"done,omitempty"`
	// Want asks for the next unit: the coordinator may hold the request up to
	// ParkMs waiting for a unit, Done or Stop before answering empty — half
	// the caller's per-attempt timeout, so a parked request never
	// looks like a lost one.
	Want   bool  `json:"want,omitempty"`
	ParkMs int64 `json:"park_ms,omitempty"`
}

// turnDone completes the lease (Run, Unit, Epoch).
type turnDone struct {
	Run    string          `json:"run"`
	Unit   uint64          `json:"unit"`
	Epoch  uint64          `json:"epoch"`
	Report core.UnitReport `json:"report"`
}

type turnResponse struct {
	// Run names this start of the coordinator; a lease granted here is
	// completed under it.
	Run string `json:"run"`
	// LeaseTTLMs is how long a lease lives: a worker sizes its leases to
	// complete well inside it.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
	// ContinueAfterBug mirrors the coordinator's exploration config so
	// every worker stops (or keeps going) consistently.
	ContinueAfterBug bool `json:"continue_after_bug"`
	// Stale reports the completion was rejected: the lease had expired and the
	// unit was re-issued under a newer epoch, or it was another start's lease.
	// Harmless — the re-execution's results are the authoritative ones.
	Stale bool `json:"stale,omitempty"`
	// Unit is the granted work unit. A Want answered with no unit, Done or
	// Stop means the park ran out: ask again now.
	Unit *core.LeasedUnit `json:"unit,omitempty"`
	// Done reports the exploration finished: nothing queued, nothing
	// leased. The worker exits with its local results.
	Done bool `json:"done,omitempty"`
	// Stop reports the coordinator is halting the run (bug found without
	// ContinueAfterBug, or operator stop); the worker exits.
	Stop bool `json:"stop,omitempty"`
	// Waiting is how many requests were parked when this answer was written:
	// with a peer unfed, a worker stops growing its budget early.
	Waiting int `json:"waiting,omitempty"`
}
