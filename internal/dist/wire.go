// Package dist implements fault-tolerant distributed exploration: an
// HTTP coordinator that owns the frontier of subtree work units, and
// worker processes that lease units from it one at a time. A lease is a
// checkpoint: the worker resumes a one-unit checkpoint as an ordinary run
// (core.Continue) and reports what that run's final checkpoint holds — its
// totals, and as remainder whatever it left unexplored. The conversation is
// three calls — join, lease, complete — and a lease is a budgeted run: the
// worker gives each one an execution budget (one execution to begin with,
// doubled while leases finish well inside the TTL), completes at the budget
// and leases again, so progress reaches the coordinator at every completion,
// a lease never needs extending, and the coordinator splits each remainder
// for whoever is waiting. Waiting is a lease request parked at the
// coordinator: it is answered the moment a completion frees a unit or the
// run resolves.
//
// The robustness model follows the lease/ownership-recovery idiom of
// disaggregated-memory systems: every lease carries a deadline and an
// epoch, a unit leased to a crashed or wedged worker is reclaimed and
// re-issued once the deadline passes, and a stale completion from the
// old epoch is rejected idempotently — deterministic re-execution makes
// the reclaim harmless. Every call goes through a transport with bounded
// retry, exponential backoff with jitter and per-call timeouts, so
// transient network faults (which internal/chaos can inject: drops,
// delays, duplicates, partitions, 5xx) never kill a run; a holder that
// missed its deadline wastes at most one lease budget of work before its
// completion is answered stale.
// The coordinator checkpoints its frontier in the same version-2 format
// single-process runs use, so a SIGKILL'd coordinator resumes losslessly
// — and a single-process run can even resume a coordinator's checkpoint.
package dist

import "repro/internal/core"

// Wire types for the coordinator's HTTP API. All endpoints are POST with
// JSON bodies. Requests carry the worker's name and a client-generated
// request ID; the coordinator remembers recent request IDs and replays
// the original response for a duplicate delivery, so retries and
// chaos-injected duplicates cannot double-apply an effect.

// joinRequest announces a worker. The digests identify what the worker
// would explore; a mismatch is rejected with 409 before the worker can
// pollute the frontier.
type joinRequest struct {
	Worker        string `json:"worker"`
	Seed          int64  `json:"seed"`
	ConfigDigest  string `json:"config_digest"`
	ProgramDigest string `json:"program_digest"`
}

type joinResponse struct {
	// LeaseTTLMs is how long a lease lives: a worker sizes its leases to
	// complete well inside it.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
	// ContinueAfterBug mirrors the coordinator's exploration config so
	// every worker stops (or keeps going) consistently.
	ContinueAfterBug bool `json:"continue_after_bug"`
	// Done and Stop are the lease response's, for a worker that joins a run
	// already resolved: there is nothing to lease.
	Done bool `json:"done,omitempty"`
	Stop bool `json:"stop,omitempty"`
}

// wireUnit is one leased work unit on the wire.
type wireUnit struct {
	ID       uint64 `json:"id"`
	Epoch    uint64 `json:"epoch"`
	Snapshot []byte `json:"snapshot"`
}

type leaseRequest struct {
	Worker string `json:"worker"`
	ReqID  string `json:"req_id"`
	// ParkMs is how long the coordinator may hold the request waiting for a
	// unit, Done or Stop before answering empty: half the caller's
	// per-attempt transport timeout, so a parked request never looks like a
	// lost one.
	ParkMs int64 `json:"park_ms,omitempty"`
}

type leaseResponse struct {
	// Unit is the granted work unit. An answer with no unit, Done or Stop
	// means the park ran out: ask again now.
	Unit *wireUnit `json:"unit,omitempty"`
	// Done reports the exploration finished: nothing queued, nothing
	// leased. The worker should complete its local work and exit.
	Done bool `json:"done,omitempty"`
	// Stop reports the coordinator is halting the run (bug found without
	// ContinueAfterBug, or operator stop); workers drain and exit.
	Stop bool `json:"stop,omitempty"`
}

type completeRequest struct {
	Worker string          `json:"worker"`
	ReqID  string          `json:"req_id"`
	UnitID uint64          `json:"unit_id"`
	Epoch  uint64          `json:"epoch"`
	Report core.UnitReport `json:"report"`
	// Again says a lease call follows unless the answer is Done or Stop; a
	// worker leaving on its own account (its budget, Stop, the memory
	// governor) completes without it and is not waited for.
	Again bool `json:"again,omitempty"`
}

type completeResponse struct {
	// Stale reports the completion was rejected: the unit's lease had
	// expired and was re-issued under a newer epoch. Harmless — the
	// re-execution's results are the authoritative ones.
	Stale bool `json:"stale,omitempty"`
	// Done and Stop are the lease response's: the completer hears how the
	// run resolved here and does not lease again.
	Done bool `json:"done,omitempty"`
	Stop bool `json:"stop,omitempty"`
}
