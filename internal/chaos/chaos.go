// Package chaos implements a deterministic, seed-driven fault injector
// for exercising the checker's own resilience machinery. The injector is
// threaded behind the engine's checkpoint filesystem calls and the
// worker loop: it can fail reads, writes, syncs and renames (transiently
// or permanently), truncate writes, flip bits in read data, stall workers
// and provoke spurious wakeups.
//
// Faults are drawn from a seeded RNG behind a mutex, so a single-worker
// run consumes faults in a reproducible order: the same seed yields the
// same fault pattern. With several workers the per-site decisions are
// still seed-derived, but which operation draws which decision depends on
// goroutine interleaving. A fault budget (MaxFaults) bounds the total
// injected faults so chaotic runs always terminate: once the budget is
// spent the injector goes quiet and the run proceeds fault-free.
//
// The package deliberately knows nothing about the checker; internal/core
// consults a *Injector through nil-safe methods, so a nil injector is the
// zero-cost "chaos off" mode. The file operations every durable file of
// the checker goes through (fileops.go) live here too, next to the fault
// points they draw.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Config selects the fault mix. All percentages are 0–100 chances per
// opportunity; zero disables that fault class.
type Config struct {
	// Seed drives the fault pattern. Two injectors with the same Config
	// produce the same decision sequence.
	Seed int64

	// ReadErrPct fails a checkpoint or journal file read.
	ReadErrPct int
	// WriteErrPct fails a checkpoint or journal file write.
	WriteErrPct int
	// SyncErrPct fails the fsync of a checkpoint temp file.
	SyncErrPct int
	// RenameErrPct fails the atomic rename installing a checkpoint.
	RenameErrPct int
	// ShortWritePct turns an injected write fault into a torn write: a
	// prefix of the data reaches the file before the error surfaces.
	ShortWritePct int
	// CorruptPct flips one bit in data read back from disk, simulating
	// on-media corruption; the decoder must reject it, never crash.
	CorruptPct int

	// StallPct makes a worker sleep StallDur at an execution boundary,
	// perturbing the work-stealing schedule and which boundary a checkpoint
	// cadence falls on.
	StallPct int
	// StallDur is the stall length; 0 means a default of 1ms.
	StallDur time.Duration

	// Network fault classes, consulted by the distributed transport
	// (repro/internal/dist). NetDropPct makes a call vanish without a
	// response, as if the packet was lost; the transport's bounded retry
	// must absorb it.
	NetDropPct int
	// NetDelayPct delays a call by NetDelayDur before it is sent,
	// modelling a slow or congested link.
	NetDelayPct int
	// NetDelayDur is the injected network delay; 0 means a default of 5ms.
	NetDelayDur time.Duration
	// NetDupPct delivers a call twice, exercising the coordinator's
	// request idempotency (a duplicated lease or completion
	// must not double its effect).
	NetDupPct int
	// Net5xxPct makes the coordinator answer a call with a retryable
	// 5xx error instead of processing it.
	Net5xxPct int
	// NetPartitionPct opens a network partition window of NetPartitionDur
	// during which every call fails, modelling a coordinator that is
	// briefly unreachable; workers must keep exploring the unit they hold
	// and reconnect when the window closes.
	NetPartitionPct int
	// NetPartitionDur is the partition window length; 0 means a default
	// of 100ms.
	NetPartitionDur time.Duration
	// SpuriousWakePct broadcasts the engine's condition variable for no
	// reason, exercising every wait loop's recheck path.
	SpuriousWakePct int

	// Permanent, when non-nil, makes every injected I/O fault permanent
	// (non-retryable) and wraps this error — e.g. syscall.ENOSPC to
	// emulate a full disk, or syscall.EACCES for a permission wall. When
	// nil, injected I/O faults are transient and retryable.
	Permanent error

	// MaxFaults bounds the total number of injected faults (stalls and
	// spurious events included); 0 means unlimited. A bounded budget
	// guarantees chaotic runs terminate: the injector goes quiet once it
	// is spent.
	MaxFaults int
}

// Stats counts injected faults by class.
type Stats struct {
	Reads, Writes, Syncs, Renames int
	ShortWrites, Corruptions      int
	Stalls, Wakes                 int
	// Network fault classes (distributed transport).
	NetDrops, NetDelays, NetDups int
	Net5xxs, NetPartitions       int
}

// Total returns the total number of injected faults.
func (s Stats) Total() int {
	return s.Reads + s.Writes + s.Syncs + s.Renames + s.Corruptions +
		s.Stalls + s.Wakes +
		s.NetDrops + s.NetDelays + s.NetDups + s.Net5xxs + s.NetPartitions
}

// Injector draws faults deterministically from a seeded RNG. Methods are
// safe for concurrent use and safe on a nil receiver (no faults).
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	spent int
	stats Stats
	// partUntil is the end of the currently open network partition
	// window; zero when no partition is active.
	partUntil time.Time
}

// New returns an injector for the given fault mix.
func New(cfg Config) *Injector {
	if cfg.StallDur == 0 {
		cfg.StallDur = time.Millisecond
	}
	if cfg.NetDelayDur == 0 {
		cfg.NetDelayDur = 5 * time.Millisecond
	}
	if cfg.NetPartitionDur == 0 {
		cfg.NetPartitionDur = 100 * time.Millisecond
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// injectedError is the error type of every injected I/O fault.
type injectedError struct {
	op        string
	permanent error // nil for transient faults
}

func (e *injectedError) Error() string {
	if e.permanent != nil {
		return fmt.Sprintf("chaos: injected permanent %s fault: %v", e.op, e.permanent)
	}
	return fmt.Sprintf("chaos: injected transient %s fault", e.op)
}

// Unwrap exposes the wrapped permanent error, so errors.Is(err,
// syscall.ENOSPC) works on an injected disk-full fault.
func (e *injectedError) Unwrap() error { return e.permanent }

// IsTransient reports whether err is (or wraps) an injected transient
// fault — the class a bounded retry is allowed to absorb.
func IsTransient(err error) bool {
	var ie *injectedError
	return errors.As(err, &ie) && ie.permanent == nil
}

// IsInjected reports whether err is (or wraps) any injected fault.
func IsInjected(err error) bool {
	var ie *injectedError
	return errors.As(err, &ie)
}

// hit consumes one fault from the budget if the seeded dice land under
// pct. It is the single point every fault class funnels through.
func (in *Injector) hit(pct int) bool {
	if pct <= 0 {
		return false
	}
	if in.cfg.MaxFaults > 0 && in.spent >= in.cfg.MaxFaults {
		return false
	}
	if in.rng.Intn(100) >= pct {
		return false
	}
	in.spent++
	return true
}

func (in *Injector) ioErr(op string) error {
	return &injectedError{op: op, permanent: in.cfg.Permanent}
}

// readFault returns an error to inject before a file read, or nil.
func (in *Injector) readFault() error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.ReadErrPct) {
		return nil
	}
	in.stats.Reads++
	return in.ioErr("read")
}

// WriteFault decides the fate of a size-byte write. A nil error means no
// fault. A non-nil error with n < 0 means the write fails before any
// byte lands; with 0 <= n < size it means a torn write — the caller
// should write the first n bytes, then surface the error.
func (in *Injector) WriteFault(size int) (n int, err error) {
	if in == nil {
		return -1, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.WriteErrPct) {
		return -1, nil
	}
	in.stats.Writes++
	if size > 0 && in.rng.Intn(100) < in.cfg.ShortWritePct {
		in.stats.ShortWrites++
		return in.rng.Intn(size), in.ioErr("write")
	}
	return -1, in.ioErr("write")
}

// SyncFault returns an error to inject at an fsync, or nil.
func (in *Injector) SyncFault() error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.SyncErrPct) {
		return nil
	}
	in.stats.Syncs++
	return in.ioErr("sync")
}

// renameFault returns an error to inject at a rename, or nil.
func (in *Injector) renameFault() error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.RenameErrPct) {
		return nil
	}
	in.stats.Renames++
	return in.ioErr("rename")
}

// corrupt possibly flips one bit of data in place, returning data. The
// caller owns the slice.
func (in *Injector) corrupt(data []byte) []byte {
	if in == nil || len(data) == 0 {
		return data
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.CorruptPct) {
		return data
	}
	in.stats.Corruptions++
	i := in.rng.Intn(len(data))
	data[i] ^= 1 << uint(in.rng.Intn(8))
	return data
}

// Stall sleeps for the configured stall duration at a worker's execution
// boundary, sometimes. Call it outside any engine lock.
func (in *Injector) Stall() {
	if in == nil {
		return
	}
	in.mu.Lock()
	stall := in.hit(in.cfg.StallPct)
	if stall {
		in.stats.Stalls++
	}
	d := in.cfg.StallDur
	in.mu.Unlock()
	if stall {
		time.Sleep(d)
	}
}

// SpuriousWake reports whether to broadcast the engine's condition
// variable for no reason.
func (in *Injector) SpuriousWake() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.SpuriousWakePct) {
		return false
	}
	in.stats.Wakes++
	return true
}

// NetDrop reports whether an outgoing call should vanish without a
// response. It also opens (and honours) network partition windows: while
// a partition is active every call is dropped, so a worker sees the
// coordinator as unreachable until the window closes. The returned error
// is transient — bounded retry is allowed to absorb it.
func (in *Injector) NetDrop() error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	now := time.Now()
	if now.Before(in.partUntil) {
		return in.ioErr("net-partition")
	}
	if in.hit(in.cfg.NetPartitionPct) {
		in.stats.NetPartitions++
		in.partUntil = now.Add(in.cfg.NetPartitionDur)
		return in.ioErr("net-partition")
	}
	if !in.hit(in.cfg.NetDropPct) {
		return nil
	}
	in.stats.NetDrops++
	return in.ioErr("net-drop")
}

// NetDelay returns how long an outgoing call should be delayed before it
// is sent (zero for no delay). The caller sleeps; the injector never
// blocks while holding its lock.
func (in *Injector) NetDelay() time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.NetDelayPct) {
		return 0
	}
	in.stats.NetDelays++
	return in.cfg.NetDelayDur
}

// NetDup reports whether a call should be delivered twice, exercising
// the receiver's request idempotency.
func (in *Injector) NetDup() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.NetDupPct) {
		return false
	}
	in.stats.NetDups++
	return true
}

// Net5xx reports whether the server should answer a call with a
// retryable 5xx instead of processing it.
func (in *Injector) Net5xx() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.hit(in.cfg.Net5xxPct) {
		return false
	}
	in.stats.Net5xxs++
	return true
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
