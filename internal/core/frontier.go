package core

// This file promotes the engine's work-unit frontier into an interface.
// The engine's own in-memory queue remains the fast path for
// single-process runs; a Frontier plugged in via Config.Frontier turns
// the run into a distributed worker that leases subtree work units from
// an external owner, explores them with its local pool, and reports
// results back. Two implementations exist:
//
//   - MemFrontier (below): an in-process lease table with time-bounded
//     leases, per-unit epochs and expiry reclamation. The distributed
//     coordinator (repro/internal/dist) embeds one as its source of
//     truth; tests drive the engine against one directly.
//   - dist.RemoteFrontier: the worker-side client that speaks the
//     coordinator's HTTP protocol through a retrying transport.
//
// The lease protocol is what makes distribution safe: every lease
// carries a deadline and an epoch. A unit whose holder goes quiet past
// the deadline is reclaimed — its epoch is bumped and it is re-issued to
// another worker — and any late completion from the old epoch is
// rejected idempotently, so a unit's results are accepted exactly once
// and re-execution after a crash is harmless.

import (
	"errors"
	"sync"
	"time"
)

// ErrStopped is returned by Frontier.Lease when the run's stop channel
// fired while waiting for work.
var ErrStopped = errors.New("cxlmc: stopped while waiting for a work-unit lease")

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
	// Deadline is when the lease expires unless renewed.
	Deadline time.Time
}

// UnitReport is what a worker hands back when every unit derived from a
// lease has been explored (or released early on a graceful stop).
type UnitReport struct {
	// Tally is the worker's delta since its previous report: counters, so
	// summing reports across workers yields exact totals when nothing
	// crashes, and the distinct bugs found since, repro tokens attached.
	// The frontier deduplicates globally.
	Tally
	// Remainder holds unexplored residue snapshots when the worker
	// stopped before exhausting the lease: requeued as fresh units so no
	// work is lost on a graceful shutdown.
	Remainder [][]byte
	// RPCRetries is the worker's transport-retry delta, aggregated by
	// the coordinator into the final Stats.
	RPCRetries int
}

// FrontierStats are cumulative robustness counters a frontier
// implementation accumulates; the engine folds them into Result.Stats.
type FrontierStats struct {
	// Reclaims counts leases reclaimed after their deadline passed.
	Reclaims int
	// RPCRetries counts transport calls retried after transient faults.
	RPCRetries int
	// StaleRejects counts completion reports rejected for carrying a
	// stale epoch.
	StaleRejects int
}

// Frontier is the engine's upstream source of subtree work units in a
// distributed run. Implementations must be safe for concurrent use; the
// engine calls them outside its own lock.
type Frontier interface {
	// Lease blocks until a work unit is available (returning it), the
	// exploration is complete (nil, nil), or stop fires (nil,
	// ErrStopped). Implementations retry transient transport faults
	// internally — an idle worker has nothing better to do than wait for
	// the frontier to come back.
	Lease(stop <-chan struct{}) (*LeasedUnit, error)
	// Complete reports every unit derived from lease u explored, along
	// with the worker's stats delta. A stale epoch is swallowed (counted,
	// not an error): the unit was reclaimed and re-issued, and this
	// worker's results must not be double-counted.
	Complete(u *LeasedUnit, rep UnitReport) error
	// Donate hands surplus split-off subtree snapshots back to the
	// frontier as fresh independent units, rebalancing work toward
	// hungry peers.
	Donate(snaps [][]byte) error
	// Demand reports how many units the frontier currently wants donated
	// (0 = nobody is hungry). Advisory; sampled at execution boundaries.
	Demand() int
	// Stats returns the cumulative robustness counters.
	Stats() FrontierStats
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
	// LeaseTTL is how long a lease lives without renewal; 0 means 5s.
	LeaseTTL time.Duration
	// OnEvent, when non-nil, observes lease-table transitions with one of
	// the class labels "grant", "renew", "complete", "reclaim", "stale".
	// Called with the frontier's lock held; it must be fast and must not
	// call back in. The coordinator wires metrics and tracing here.
	OnEvent func(class string, unit, epoch uint64)
}

// MemFrontier is the in-memory Frontier implementation: a lease table
// with time-bounded leases, per-unit epochs, and a janitor that reclaims
// expired leases so a crashed or wedged holder cannot strand work. It is
// the coordinator's source of truth and directly usable in-process.
type MemFrontier struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  MemFrontierConfig

	nextID  uint64
	queue   []*frontierUnit
	leased  map[uint64]*frontierUnit
	waiters int
	closed  bool
	// stopping makes Lease return "complete" without handing out more
	// units (bug-stop or graceful coordinator shutdown); leased units
	// stay tracked so late completions are still folded in.
	stopping bool

	stats FrontierStats
	// tally accumulates the accepted completion reports (and whatever
	// Credit seeded it with).
	tally        Tally
	unitsAdded   int
	unitsDone    int
	janitorStop  chan struct{}
	janitorEnded chan struct{}
}

// NewMemFrontier returns a frontier seeded with the given unit
// snapshots and starts its reclaim janitor. Close it when done.
func NewMemFrontier(cfg MemFrontierConfig, units [][]byte) *MemFrontier {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 5 * time.Second
	}
	f := &MemFrontier{
		cfg:          cfg,
		leased:       make(map[uint64]*frontierUnit),
		janitorStop:  make(chan struct{}),
		janitorEnded: make(chan struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	f.addLocked(units)
	go f.janitor()
	return f
}

// janitor periodically reclaims expired leases and wakes blocked Lease
// calls so they can re-check their stop channels. The tick is fast
// relative to any sane TTL, so reclamation latency is bounded by roughly
// TTL + tick.
func (f *MemFrontier) janitor() {
	defer close(f.janitorEnded)
	tick := f.cfg.LeaseTTL / 4
	if tick > 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-f.janitorStop:
			return
		case <-t.C:
			f.mu.Lock()
			f.reclaimExpiredLocked(time.Now())
			// Wake waiters even without reclaims: blocked Lease calls
			// re-check their stop channels on every wakeup.
			f.cond.Broadcast()
			f.mu.Unlock()
		}
	}
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
	if len(snaps) > 0 {
		f.cond.Broadcast()
	}
}

// Add registers fresh work-unit snapshots (seeding, donations, returned
// remainders).
func (f *MemFrontier) Add(snaps [][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.addLocked(snaps)
}

// TryLease hands out the next queued unit under a fresh lease, without
// blocking. done reports that the exploration is over: nothing queued,
// nothing leased (or the frontier is stopping and nothing is queued for
// this holder to pick up).
func (f *MemFrontier) TryLease(holder string) (u *LeasedUnit, done bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reclaimExpiredLocked(time.Now())
	if f.closed || f.stopping {
		return nil, true
	}
	if len(f.queue) == 0 {
		return nil, len(f.leased) == 0
	}
	return f.grantLocked(holder), false
}

// grantLocked leases the head of the (non-empty) queue to holder.
func (f *MemFrontier) grantLocked(holder string) *LeasedUnit {
	fu := f.queue[0]
	f.queue = f.queue[1:]
	fu.deadline = time.Now().Add(f.cfg.LeaseTTL)
	fu.holder = holder
	f.leased[fu.id] = fu
	f.event("grant", fu.id, fu.epoch)
	return &LeasedUnit{ID: fu.id, Epoch: fu.epoch, Snapshot: fu.snap, Deadline: fu.deadline}
}

// Lease implements Frontier: it blocks until a unit is available, the
// exploration completes, or stop fires.
func (f *MemFrontier) Lease(stop <-chan struct{}) (*LeasedUnit, error) {
	f.mu.Lock()
	f.waiters++
	defer func() { f.waiters--; f.mu.Unlock() }()
	for {
		if stopRequested(stop) {
			return nil, ErrStopped
		}
		f.reclaimExpiredLocked(time.Now())
		if f.closed || f.stopping {
			return nil, nil
		}
		if len(f.queue) > 0 {
			return f.grantLocked("local"), nil
		}
		if len(f.leased) == 0 {
			return nil, nil
		}
		f.cond.Wait()
	}
}

// Renew extends the lease on (id, epoch), reporting whether it is still
// valid. A renewal with a stale epoch fails: the unit was reclaimed and
// belongs to someone else now.
func (f *MemFrontier) Renew(id, epoch uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	u, ok := f.leased[id]
	if !ok || u.epoch != epoch {
		return false
	}
	u.deadline = time.Now().Add(f.cfg.LeaseTTL)
	f.event("renew", id, epoch)
	return true
}

// CompleteReport folds one completion report into the frontier. A report
// for an unknown unit or a stale epoch is rejected (stale=true) and
// changes nothing — the unit was reclaimed and its re-execution is the
// authoritative one. Remainder snapshots requeue as fresh units.
func (f *MemFrontier) CompleteReport(id, epoch uint64, rep UnitReport) (stale bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
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
	f.cond.Broadcast()
	return false
}

// Complete implements Frontier.
func (f *MemFrontier) Complete(u *LeasedUnit, rep UnitReport) error {
	f.CompleteReport(u.ID, u.Epoch, rep)
	return nil
}

// Donate implements Frontier: donated snapshots become fresh units.
func (f *MemFrontier) Donate(snaps [][]byte) error {
	f.Add(snaps)
	return nil
}

// Demand implements Frontier: how many units blocked Lease calls are
// waiting for, net of what is already queued.
func (f *MemFrontier) Demand() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.waiters - len(f.queue)
	if d < 0 {
		return 0
	}
	return d
}

// Stats implements Frontier.
func (f *MemFrontier) Stats() FrontierStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Stop makes the frontier hand out no further units: Lease reports the
// exploration complete, TryLease reports done. Outstanding leases stay
// tracked so in-flight completions still fold in.
func (f *MemFrontier) Stop() {
	f.mu.Lock()
	f.stopping = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Done reports whether every unit has been completed (nothing queued,
// nothing leased) without Stop having cut the run short.
func (f *MemFrontier) Done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.stopping && len(f.queue) == 0 && len(f.leased) == 0 && f.unitsAdded > 0
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
// rather than losing them.
func (f *MemFrontier) Outstanding() (t Tally, units [][]byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	units = make([][]byte, 0, len(f.queue)+len(f.leased))
	for _, u := range f.queue {
		units = append(units, u.snap)
	}
	for _, u := range f.leased {
		units = append(units, u.snap)
	}
	return f.tallyLocked(), units
}

// Close stops the janitor and wakes every blocked Lease call.
func (f *MemFrontier) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	close(f.janitorStop)
	<-f.janitorEnded
}
