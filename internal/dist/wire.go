// Package dist implements fault-tolerant distributed exploration: an
// HTTP coordinator that owns the frontier of subtree work units, and
// worker processes that lease units from it one at a time. A lease is a
// checkpoint: the worker resumes a one-unit checkpoint as an ordinary run
// (core.Continue) and reports what that run's final checkpoint holds — its
// totals, and as remainder whatever it left unexplored. A worker asked to
// make room for hungry peers simply stops early; the coordinator splits the
// remainder it gets back.
//
// The robustness model follows the lease/ownership-recovery idiom of
// disaggregated-memory systems: every lease carries a deadline and an
// epoch, a unit leased to a crashed or wedged worker is reclaimed and
// re-issued once the deadline passes, and a stale completion from the
// old epoch is rejected idempotently — deterministic re-execution makes
// the reclaim harmless. Every call goes through a transport with bounded
// retry, exponential backoff with jitter and per-call timeouts, so
// transient network faults (which internal/chaos can inject: drops,
// delays, duplicates, partitions, 5xx) never kill a run; a worker that
// cannot reach the coordinator keeps exploring the unit it holds.
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
	// LeaseTTLMs is the lease duration workers must renew within.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
	// ContinueAfterBug mirrors the coordinator's exploration config so
	// every worker stops (or keeps going) consistently.
	ContinueAfterBug bool `json:"continue_after_bug"`
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
}

type leaseResponse struct {
	// Unit is the granted work unit, nil when none is available.
	Unit *wireUnit `json:"unit,omitempty"`
	// Done reports the exploration finished: nothing queued, nothing
	// leased. The worker should complete its local work and exit.
	Done bool `json:"done,omitempty"`
	// Stop reports the coordinator is halting the run (bug found without
	// ContinueAfterBug, or operator stop); workers drain and exit.
	Stop bool `json:"stop,omitempty"`
	// WaitMs suggests how long to wait before asking again when no unit
	// was available.
	WaitMs int64 `json:"wait_ms,omitempty"`
}

type completeRequest struct {
	Worker string          `json:"worker"`
	ReqID  string          `json:"req_id"`
	UnitID uint64          `json:"unit_id"`
	Epoch  uint64          `json:"epoch"`
	Report core.UnitReport `json:"report"`
}

type completeResponse struct {
	// Stale reports the completion was rejected: the unit's lease had
	// expired and was re-issued under a newer epoch. Harmless — the
	// re-execution's results are the authoritative ones.
	Stale bool `json:"stale,omitempty"`
	Stop  bool `json:"stop,omitempty"`
}

type renewRequest struct {
	Worker string      `json:"worker"`
	ReqID  string      `json:"req_id"`
	Leases []wireLease `json:"leases"`
}

type wireLease struct {
	ID    uint64 `json:"id"`
	Epoch uint64 `json:"epoch"`
}

type renewResponse struct {
	// StaleIDs lists leases that could not be renewed (reclaimed and
	// re-issued); the worker abandons them, and its completions for them
	// will be rejected.
	StaleIDs []uint64 `json:"stale_ids,omitempty"`
	Stop     bool     `json:"stop,omitempty"`
	// Wanted is how many workers are waiting for a unit the queue cannot
	// give them. A holder that sees it above zero completes its lease
	// early, and the coordinator splits the remainder it returns.
	Wanted int `json:"wanted,omitempty"`
}
