package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/decision"
)

// The MemFrontier lease-protocol suite: grants, expiry
// reclamation with epoch bumps and stale-completion rejection.

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

	// The crashed holder never completes; the successor's own TryLease reclaims.
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

// TestFrontierWhoeverLooksReclaims: the frontier runs no goroutine of its
// own; an expired lease is reclaimed by the next call that looks at the
// lease table, whichever it is.
func TestFrontierWhoeverLooksReclaims(t *testing.T) {
	looks := map[string]func(t *testing.T, f *MemFrontier, u *LeasedUnit){
		"CompleteReport": func(t *testing.T, f *MemFrontier, u *LeasedUnit) {
			if stale := f.CompleteReport(u.ID, u.Epoch, execReport(1)); !stale {
				t.Error("accepted a completion past the lease's deadline")
			}
		},
		"TryLease": func(t *testing.T, f *MemFrontier, u *LeasedUnit) {
			if u2, _ := f.TryLease("successor"); u2 == nil || u2.ID != u.ID || u2.Epoch != u.Epoch+1 {
				t.Errorf("TryLease = %+v, want unit %d re-issued under epoch %d", u2, u.ID, u.Epoch+1)
			}
		},
		"Progress": func(t *testing.T, f *MemFrontier, u *LeasedUnit) {
			if _, queued, leased := f.Progress(); queued != 1 || leased != 0 {
				t.Errorf("Progress = (queued %d, leased %d), want (1, 0)", queued, leased)
			}
		},
	}
	for name, look := range looks {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			f := newTestFrontier(t, time.Millisecond)
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("NewMemFrontier started %d goroutine(s)", after-before)
			}
			u, _ := f.TryLease("crasher")
			if u == nil {
				t.Fatal("no initial lease")
			}
			time.Sleep(5 * time.Millisecond) // the lease's wall-clock deadline passes
			look(t, f, u)
			if got := f.Stats().Reclaims; got != 1 {
				t.Errorf("Reclaims = %d after %s looked, want 1", got, name)
			}
		})
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

// TestOutstandingIsDeterministic: a checkpoint lists the same frontier's
// units in the same order every time — the queued ones, then the leased ones
// by id — however the lease table iterates.
func TestOutstandingIsDeterministic(t *testing.T) {
	f := NewMemFrontier(MemFrontierConfig{LeaseTTL: time.Minute}, [][]byte{{1}, {2}, {3}, {4}, {5}, {6}})
	defer f.Close()
	for range 5 {
		if u, _ := f.TryLease("w"); u == nil {
			t.Fatal("a queued unit was not granted")
		}
	}
	_, first := f.Outstanding()
	for range 20 {
		if _, again := f.Outstanding(); !reflect.DeepEqual(again, first) {
			t.Fatalf("Outstanding = %v, then %v", first, again)
		}
	}
	if want := [][]byte{{6}, {1}, {2}, {3}, {4}, {5}}; !reflect.DeepEqual(first, want) {
		t.Fatalf("Outstanding = %v, want the queued unit, then the leased ones by id: %v", first, want)
	}
}

// TestEmptyFrontierIsDone: a frontier seeded with nothing — a resumed
// checkpoint of a complete exploration — is done from the start.
func TestEmptyFrontierIsDone(t *testing.T) {
	f := NewMemFrontier(MemFrontierConfig{}, nil)
	defer f.Close()
	if !f.Done() {
		t.Fatal("an empty frontier is not done")
	}
	if u, done := f.TryLease("w"); u != nil || !done {
		t.Fatalf("TryLease = (%v, %v), want (nil, true)", u, done)
	}
}
