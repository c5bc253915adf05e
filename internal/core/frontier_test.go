package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/decision"
)

// The MemFrontier lease-protocol suite: grants, renewal, expiry
// reclamation with epoch bumps, stale-completion rejection, and the
// engine running against a frontier producing exactly the results of a
// plain run.

func frontierProgram(p *Program) {
	a := p.NewMachine("A")
	b := p.NewMachine("B")
	data := p.Alloc(8)
	flag := p.AllocAligned(8, 64)
	a.Thread("writer", func(t *Thread) {
		t.Store64(data, 42)
		// Missing CLFlush(data): the classic lost-update bug.
		t.SFence()
		t.Store64(flag, 1)
		t.CLFlush(flag)
		t.SFence()
	})
	b.Thread("reader", func(t *Thread) {
		t.Join(a)
		if t.Load64(flag) == 1 {
			t.Assert(t.Load64(data) == 42, "flag set but data lost")
		}
	})
}

func newTestFrontier(t *testing.T, ttl time.Duration) *MemFrontier {
	t.Helper()
	f := NewMemFrontier(MemFrontierConfig{LeaseTTL: ttl},
		[][]byte{decision.NewTree().Snapshot()})
	t.Cleanup(f.Close)
	return f
}

// execReport is a completion report carrying n executions and nothing else.
func execReport(n int) UnitReport {
	return UnitReport{Tally: Tally{Counters: Counters{Executions: n}}}
}

// TestFrontierLeaseLifecycle: a unit is granted once, completing it
// under the granted epoch is accepted, and the frontier then reports
// done.
func TestFrontierLeaseLifecycle(t *testing.T) {
	f := newTestFrontier(t, time.Minute)
	u, done := f.TryLease("w1")
	if u == nil || done {
		t.Fatalf("TryLease = (%v, %v), want a unit", u, done)
	}
	if u2, done2 := f.TryLease("w2"); u2 != nil || done2 {
		t.Fatalf("second TryLease = (%v, %v), want (nil, false): the only unit is leased", u2, done2)
	}
	if stale := f.CompleteReport(u.ID, u.Epoch, execReport(7)); stale {
		t.Fatal("in-epoch completion rejected as stale")
	}
	if !f.Done() {
		t.Fatal("frontier not done after its only unit completed")
	}
	got, queued, leased := f.Progress()
	if got.Executions != 7 || queued != 0 || leased != 0 {
		t.Fatalf("Progress = (execs %d, queued %d, leased %d), want (7, 0, 0)", got.Executions, queued, leased)
	}
	if added, done := f.UnitCounts(); added != 1 || done != 1 {
		t.Fatalf("UnitCounts = (%d, %d), want (1, 1)", added, done)
	}
}

// TestFrontierExpiryReclaim: a lease whose holder goes quiet past the
// TTL is reclaimed — the unit is re-issued under a bumped epoch — and
// the crashed holder's late completion is rejected as stale while the
// new holder's is accepted. The canonical crashed-worker story.
func TestFrontierExpiryReclaim(t *testing.T) {
	f := newTestFrontier(t, 30*time.Millisecond)
	u, _ := f.TryLease("crasher")
	if u == nil {
		t.Fatal("no initial lease")
	}

	// The crashed holder never renews; the janitor must reclaim.
	deadline := time.Now().Add(5 * time.Second)
	var u2 *LeasedUnit
	for time.Now().Before(deadline) {
		if got, _ := f.TryLease("successor"); got != nil {
			u2 = got
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if u2 == nil {
		t.Fatal("expired lease never reclaimed and re-issued")
	}
	if u2.ID != u.ID {
		t.Fatalf("re-issued unit ID = %d, want %d", u2.ID, u.ID)
	}
	if u2.Epoch != u.Epoch+1 {
		t.Fatalf("re-issued epoch = %d, want %d (bumped)", u2.Epoch, u.Epoch+1)
	}
	if f.Stats().Reclaims != 1 {
		t.Fatalf("Reclaims = %d, want 1", f.Stats().Reclaims)
	}

	// The crasher comes back from the dead and reports: rejected, and
	// nothing is double-counted.
	if stale := f.CompleteReport(u.ID, u.Epoch, execReport(99)); !stale {
		t.Fatal("stale-epoch completion accepted")
	}
	if f.Stats().StaleRejects != 1 {
		t.Fatalf("StaleRejects = %d, want 1", f.Stats().StaleRejects)
	}
	if got, _, _ := f.Progress(); got.Executions != 0 {
		t.Fatalf("stale completion leaked %d executions into the totals", got.Executions)
	}

	// The successor's completion under the current epoch is the
	// authoritative one.
	if stale := f.CompleteReport(u2.ID, u2.Epoch, execReport(3)); stale {
		t.Fatal("current-epoch completion rejected")
	}
	if got, _, _ := f.Progress(); got.Executions != 3 {
		t.Fatalf("executions = %d, want 3 (successor's report only)", got.Executions)
	}
	if !f.Done() {
		t.Fatal("frontier not done after the authoritative completion")
	}
}

// TestFrontierRenewKeepsLease: renewing inside the TTL prevents
// reclamation; renewing a reclaimed lease fails.
func TestFrontierRenewKeepsLease(t *testing.T) {
	f := newTestFrontier(t, 40*time.Millisecond)
	u, _ := f.TryLease("w")
	if u == nil {
		t.Fatal("no lease")
	}
	for i := 0; i < 8; i++ {
		time.Sleep(15 * time.Millisecond)
		if !f.Renew(u.ID, u.Epoch) {
			t.Fatalf("renew %d failed inside the TTL", i)
		}
	}
	if f.Stats().Reclaims != 0 {
		t.Fatalf("renewed lease was reclaimed %d time(s)", f.Stats().Reclaims)
	}
	// Let it lapse; the next renew must fail.
	time.Sleep(120 * time.Millisecond)
	if f.Renew(u.ID, u.Epoch) {
		t.Fatal("renew of an expired (reclaimed) lease succeeded")
	}
	if f.Stats().Reclaims != 1 {
		t.Fatalf("Reclaims = %d, want 1 after the lapse", f.Stats().Reclaims)
	}
}

// TestFrontierLeaseBlocksUntilStop: a blocking Lease call with nothing
// queued returns ErrStopped when the stop channel fires.
func TestFrontierLeaseBlocksUntilStop(t *testing.T) {
	f := newTestFrontier(t, time.Minute)
	u, _ := f.TryLease("holder") // drain the queue; a lease stays out
	if u == nil {
		t.Fatal("no lease")
	}
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := f.Lease(stop)
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("Lease returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	close(stop)
	select {
	case err := <-errc:
		if err != ErrStopped {
			t.Fatalf("Lease error = %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Lease did not observe stop")
	}
}

// TestFrontierBugDedup: duplicate (kind, message) bugs across reports
// collapse to one.
func TestFrontierBugDedup(t *testing.T) {
	f := NewMemFrontier(MemFrontierConfig{LeaseTTL: time.Minute}, [][]byte{
		decision.NewTree().Snapshot(), decision.NewTree().Snapshot(),
	})
	defer f.Close()
	bug := Bug{Kind: BugAssertion, Message: "same everywhere"}
	u1, _ := f.TryLease("a")
	u2, _ := f.TryLease("b")
	f.CompleteReport(u1.ID, u1.Epoch, UnitReport{Tally: Tally{Bugs: []Bug{bug}}})
	f.CompleteReport(u2.ID, u2.Epoch, UnitReport{Tally: Tally{Bugs: []Bug{bug}}})
	got, _, _ := f.Progress()
	if len(got.Bugs) != 1 {
		t.Fatalf("got %d bugs after dedup, want 1", len(got.Bugs))
	}
}

// TestFrontierOutstandingIsOneRead: while a worker leases and completes
// units, every Outstanding read must account for all of them — a unit is
// either still in the list or already in the tally. Reading the tally and
// the list under two lock acquisitions (what the coordinator's periodic
// checkpoint did) lets a completion land in between and vanish from both:
// a checkpoint written then resumes to a verdict that silently misses the
// unit's executions and bugs.
func TestFrontierOutstandingIsOneRead(t *testing.T) {
	const n = 20000
	snap := decision.NewTree().Snapshot()
	units := make([][]byte, n)
	for i := range units {
		units[i] = snap
	}
	f := NewMemFrontier(MemFrontierConfig{LeaseTTL: time.Minute}, units)
	defer f.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			u, fin := f.TryLease("w")
			if u == nil {
				if fin {
					return
				}
				continue
			}
			f.CompleteReport(u.ID, u.Epoch, execReport(1))
		}
	}()
	for reads, running := 1, true; running; reads++ {
		select {
		case <-done:
			running = false // one last read, of the finished frontier
		default:
		}
		tally, out := f.Outstanding()
		if tally.Executions+len(out) != n {
			t.Fatalf("read %d: %d executions in the tally + %d units outstanding = %d, want %d",
				reads, tally.Executions, len(out), tally.Executions+len(out), n)
		}
	}
}

// TestEngineAgainstMemFrontier: a Config.Frontier run is a distributed
// worker in miniature. Driving the engine against an in-process
// MemFrontier seeded with the whole tree must reproduce exactly the
// stats and distinct bug set of a plain run — the engine-level form of
// the cross-process parity the dist package proves over HTTP.
func TestEngineAgainstMemFrontier(t *testing.T) {
	base := Config{ContinueAfterBug: true}
	plain, err := Run(base, frontierProgram)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Buggy() {
		t.Fatal("baseline found no bugs; the fixture is supposed to be buggy")
	}

	for _, workers := range []int{1, 4} {
		f := NewMemFrontier(MemFrontierConfig{LeaseTTL: time.Minute}, nil)
		f.Add([][]byte{decision.NewTree().Snapshot()})
		cfg := base
		cfg.Workers = workers
		cfg.Frontier = f
		res, err := Run(cfg, frontierProgram)
		f.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Complete {
			t.Fatalf("workers=%d: frontier run incomplete", workers)
		}
		if res.Executions != plain.Executions ||
			res.FailurePoints != plain.FailurePoints ||
			res.ReadFromPoints != plain.ReadFromPoints {
			t.Fatalf("workers=%d: stats (execs %d, fp %d, rfp %d) != plain (execs %d, fp %d, rfp %d)",
				workers, res.Executions, res.FailurePoints, res.ReadFromPoints,
				plain.Executions, plain.FailurePoints, plain.ReadFromPoints)
		}
		if got, want := distinctMsgs(res.Bugs), distinctMsgs(plain.Bugs); !equalStrings(got, want) {
			t.Fatalf("workers=%d: bugs %v != plain %v", workers, got, want)
		}
		if added, done := f.UnitCounts(); added != done {
			t.Fatalf("workers=%d: %d units added but %d completed — work lost or duplicated", workers, added, done)
		}
	}
}

// TestEngineFrontierConfigExclusive: Config.Frontier excludes the
// engine's own durable state.
func TestEngineFrontierConfigExclusive(t *testing.T) {
	f := NewMemFrontier(MemFrontierConfig{}, nil)
	defer f.Close()
	if _, err := Run(Config{Frontier: f, CheckpointPath: t.TempDir() + "/cp"}, frontierProgram); err == nil {
		t.Fatal("Frontier + CheckpointPath accepted")
	}
	if _, err := Run(Config{Frontier: f, SpillDir: t.TempDir()}, frontierProgram); err == nil {
		t.Fatal("Frontier + SpillDir accepted")
	}
}

// TestEngineFrontierSplitsUnderDemand: with the frontier reporting
// donation demand, an engine exploring a large unit re-donates splits —
// and every donated unit is eventually completed by someone.
func TestEngineFrontierSplitsUnderDemand(t *testing.T) {
	f := NewMemFrontier(MemFrontierConfig{LeaseTTL: time.Minute}, nil)
	defer f.Close()
	f.Add([][]byte{decision.NewTree().Snapshot()})

	// A second consumer leasing concurrently keeps Demand above zero
	// while the first engine explores, so its boundary check donates.
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	var consumed int
	go func() {
		defer wg.Done()
		for {
			u, err := f.Lease(stop)
			if err != nil || u == nil {
				return
			}
			// Complete without exploring: the unit snapshot is returned
			// as remainder so no work is lost, exercising requeue.
			f.CompleteReport(u.ID, u.Epoch, UnitReport{Remainder: [][]byte{u.Snapshot}})
			consumed++
			if consumed >= 3 {
				return
			}
		}
	}()

	cfg := Config{ContinueAfterBug: true, Workers: 2, Frontier: f}
	res, err := Run(cfg, frontierProgram)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("frontier run incomplete")
	}
	plain, err := Run(Config{ContinueAfterBug: true}, frontierProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executions != plain.Executions {
		t.Fatalf("executions %d != plain %d despite donation churn", res.Executions, plain.Executions)
	}
	if added, done := f.UnitCounts(); added != done {
		t.Fatalf("%d units added, %d completed — work lost or duplicated", added, done)
	}
}

func distinctMsgs(bugs []Bug) []string {
	seen := map[string]bool{}
	var out []string
	for _, b := range bugs {
		k := b.Kind.String() + ": " + b.Message
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
