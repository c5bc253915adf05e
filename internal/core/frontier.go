package core

// This file is the lease table a distributed exploration's frontier lives
// in: MemFrontier holds the subtree work units nobody has finished, hands
// them out under time-bounded leases and folds the holders' reports into one
// tally. The distributed coordinator (repro/internal/dist) owns one as its
// source of truth; a worker turns each lease into an ordinary resumable run
// (Continue) and never sees this type.
//
// The lease protocol is what makes distribution safe: every lease
// carries a deadline and an epoch. A unit whose holder has not completed it
// by the deadline is reclaimed — its epoch is bumped and it is re-issued to
// another worker — and any late completion from the old epoch is
// rejected idempotently, so a unit's results are accepted exactly once
// and re-execution after a crash is harmless.

import (
	"maps"
	"slices"
	"sync"
	"time"
)

// DefaultLeaseTTL is how long a lease lives when its owner configures no
// other.
const DefaultLeaseTTL = 5 * time.Second

// LeasedUnit is one subtree work unit held under a time-bounded lease.
type LeasedUnit struct {
	// ID identifies the unit in its frontier's lease table.
	ID uint64
	// Epoch is the lease generation. A reclaim bumps it, so completions
	// from a previous holder are recognizably stale.
	Epoch uint64
	// Snapshot is the unit's decision-tree snapshot (decision.Tree
	// Snapshot/Restore encoding).
	Snapshot []byte
}

// UnitReport is what a worker hands back for a lease: the totals and the
// units of the checkpoint its run of the leased unit ended with.
type UnitReport struct {
	// Tally is what exploring the lease found: counters, so summing reports
	// across workers yields exact totals, and the distinct bugs, repro tokens
	// attached. Decision points follow the checkpoint convention — those of
	// the units in Remainder stay embedded in them, to be reported by whoever
	// exhausts them — so no counter is ever negative. The frontier
	// deduplicates bugs globally.
	Tally
	// Remainder holds the snapshots of what the worker left unexplored when
	// it stopped before exhausting the lease (its budget ran out, it was
	// stopped, or hungry peers made it yield): requeued as fresh units.
	Remainder [][]byte
	// RPCRetries is the worker's transport-retry delta, aggregated by
	// the coordinator into the final Stats.
	RPCRetries int
}

// FrontierStats are the cumulative robustness counters a MemFrontier
// accumulates; its owner folds them into Result.Stats.
type FrontierStats struct {
	// Reclaims counts leases reclaimed after their deadline passed.
	Reclaims int
	// RPCRetries counts transport calls retried after transient faults.
	RPCRetries int
	// StaleRejects counts completion reports rejected for carrying a
	// stale epoch.
	StaleRejects int
}

// frontierUnit is one work unit in a MemFrontier's lease table.
type frontierUnit struct {
	id       uint64
	epoch    uint64
	snap     []byte
	deadline time.Time
	holder   string
}

// MemFrontierConfig configures a MemFrontier.
type MemFrontierConfig struct {
	// LeaseTTL is how long a holder has to complete a lease; 0 means
	// DefaultLeaseTTL.
	LeaseTTL time.Duration
	// OnEvent, when non-nil, observes lease-table transitions with one of
	// the class labels "grant", "complete", "reclaim", "stale".
	// Called with the frontier's lock held; it must be fast and must not
	// call back in. The coordinator wires metrics and tracing here.
	OnEvent func(class string, unit, epoch uint64)
}

// MemFrontier is the in-memory lease table: time-bounded leases and per-unit
// epochs. An expired lease is reclaimed by whoever next looks at the table
// (TryLease, CompleteReport, Progress), so a crashed or wedged holder
// cannot strand work as long as anyone is still asking.
type MemFrontier struct {
	mu  sync.Mutex
	cfg MemFrontierConfig

	nextID uint64
	queue  []*frontierUnit
	leased map[uint64]*frontierUnit
	closed bool
	// stopping makes TryLease report done without handing out more
	// units (bug-stop or graceful coordinator shutdown); leased units
	// stay tracked so late completions are still folded in.
	stopping bool

	stats FrontierStats
	// tally accumulates the accepted completion reports (and whatever
	// Credit seeded it with).
	tally      Tally
	unitsAdded int
	unitsDone  int
}

// NewMemFrontier returns a frontier seeded with the given unit snapshots.
func NewMemFrontier(cfg MemFrontierConfig, units [][]byte) *MemFrontier {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	f := &MemFrontier{cfg: cfg, leased: make(map[uint64]*frontierUnit)}
	f.addLocked(units)
	return f
}

// reclaimExpiredLocked moves every lease whose deadline has passed back
// to the queue under a bumped epoch.
func (f *MemFrontier) reclaimExpiredLocked(now time.Time) {
	for id, u := range f.leased {
		if now.Before(u.deadline) {
			continue
		}
		delete(f.leased, id)
		u.epoch++
		u.holder = ""
		f.queue = append(f.queue, u)
		f.stats.Reclaims++
		f.event("reclaim", u.id, u.epoch)
	}
}

func (f *MemFrontier) event(class string, unit, epoch uint64) {
	if f.cfg.OnEvent != nil {
		f.cfg.OnEvent(class, unit, epoch)
	}
}

func (f *MemFrontier) addLocked(snaps [][]byte) {
	for _, s := range snaps {
		f.nextID++
		f.queue = append(f.queue, &frontierUnit{id: f.nextID, snap: s})
		f.unitsAdded++
	}
}

// TryLease hands out the next queued unit under a fresh lease, without
// blocking. done reports that the exploration is over: nothing queued,
// nothing leased (or the frontier is stopping and nothing is queued for
// this holder to pick up).
func (f *MemFrontier) TryLease(holder string) (u *LeasedUnit, done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	f.reclaimExpiredLocked(now)
	if f.closed || f.stopping {
		return nil, true
	}
	if len(f.queue) == 0 {
		return nil, len(f.leased) == 0
	}
	fu := f.queue[0]
	f.queue = f.queue[1:]
	fu.deadline = now.Add(f.cfg.LeaseTTL)
	fu.holder = holder
	f.leased[fu.id] = fu
	f.event("grant", fu.id, fu.epoch)
	return &LeasedUnit{ID: fu.id, Epoch: fu.epoch, Snapshot: fu.snap}, false
}

// CompleteReport folds one completion report into the frontier. A report
// for an unknown unit or a stale epoch is rejected (stale=true) and
// changes nothing — the unit was reclaimed and its re-execution is the
// authoritative one. Remainder snapshots requeue as fresh units.
func (f *MemFrontier) CompleteReport(id, epoch uint64, rep UnitReport) (stale bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reclaimExpiredLocked(time.Now())
	u, ok := f.leased[id]
	if !ok || u.epoch != epoch {
		f.stats.StaleRejects++
		f.event("stale", id, epoch)
		return true
	}
	delete(f.leased, id)
	f.unitsDone++
	f.tally.Fold(rep.Tally)
	f.stats.RPCRetries += rep.RPCRetries
	f.addLocked(rep.Remainder)
	f.event("complete", id, epoch)
	return false
}

// Complete is CompleteReport for the holder of u. It cannot fail.
func (f *MemFrontier) Complete(u *LeasedUnit, rep UnitReport) error {
	f.CompleteReport(u.ID, u.Epoch, rep)
	return nil
}

// Stats returns the cumulative robustness counters.
func (f *MemFrontier) Stats() FrontierStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Stop makes the frontier hand out no further units: TryLease reports
// done. Outstanding leases stay tracked so in-flight completions still
// fold in.
func (f *MemFrontier) Stop() {
	f.mu.Lock()
	f.stopping = true
	f.mu.Unlock()
}

// Done reports whether nothing is left to explore (nothing queued, nothing
// leased) without Stop having cut the run short — from the start, for a
// frontier seeded with no units.
func (f *MemFrontier) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.stopping && len(f.queue) == 0 && len(f.leased) == 0
}

// Credit folds results obtained before this frontier existed — a resumed
// checkpoint's totals — into its tally, so Progress reports the whole
// exploration and the frontier's owner keeps no second set of books.
func (f *MemFrontier) Credit(t Tally) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tally.Fold(t)
}

// Progress returns everything the frontier has accumulated — the tally of
// accepted reports, as a copy the caller may keep and merge into — and the
// queued/leased unit counts.
func (f *MemFrontier) Progress() (t Tally, queued, leased int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reclaimExpiredLocked(time.Now())
	return f.tallyLocked(), len(f.queue), len(f.leased)
}

func (f *MemFrontier) tallyLocked() Tally {
	return Tally{Counters: f.tally.Counters, Bugs: append([]Bug(nil), f.tally.Bugs...)}
}

// UnitCounts returns how many units were ever added and how many were
// completed; with nothing outstanding the two are equal exactly when no
// unit was lost.
func (f *MemFrontier) UnitCounts() (added, done int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.unitsAdded, f.unitsDone
}

// Outstanding returns, from one locked read, the tally and the snapshots
// of every queued and leased unit — the unexplored frontier a checkpoint
// must capture. Taking both under one lock is what keeps a checkpoint
// whole: a completion landing between two reads would leave its unit in
// neither the tally nor the list. Leased units are included with their
// *pre-lease* snapshot: their holder's progress is unreported until
// completion, so the checkpoint conservatively re-explores them on resume
// rather than losing them. Queued units come first, then leased ones by id,
// so the same frontier always lists its units in the same order.
func (f *MemFrontier) Outstanding() (t Tally, units [][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	units = make([][]byte, 0, len(f.queue)+len(f.leased))
	for _, u := range f.queue {
		units = append(units, u.snap)
	}
	for _, id := range slices.Sorted(maps.Keys(f.leased)) {
		units = append(units, f.leased[id].snap)
	}
	return f.tallyLocked(), units
}

// Close makes TryLease report done from now on.
func (f *MemFrontier) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
}
