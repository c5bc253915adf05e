package core

import (
	"strings"
	"testing"
)

// hasKind reports whether any bug of the given kind was found.
func hasKind(res *Result, k BugKind) bool {
	for _, b := range res.Bugs {
		if b.Kind == k {
			return true
		}
	}
	return false
}

func raceKindBugs(res *Result) []Bug {
	var out []Bug
	for _, b := range res.Bugs {
		if b.Kind == BugDataRace || b.Kind == BugUnflushedPublish {
			out = append(out, b)
		}
	}
	return out
}

// TestRaceDetectedUnsyncedThreads: two threads on one machine writing
// the same word with no synchronization is the textbook data race.
func TestRaceDetectedUnsyncedThreads(t *testing.T) {
	res := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 2000}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("t1", func(th *Thread) { th.Store64(x, 1) })
		a.Thread("t2", func(th *Thread) { th.Store64(x, 2) })
	})
	if !hasKind(res, BugDataRace) {
		t.Fatalf("no data race reported; bugs: %v", res.Bugs)
	}
	if res.Stats.RaceReports == 0 {
		t.Fatalf("Stats.RaceReports = 0, want > 0")
	}
	for _, b := range res.Bugs {
		if b.Kind == BugDataRace && b.ReproToken == "" {
			t.Fatalf("race bug carries no repro token: %+v", b)
		}
	}
}

// TestRaceReadWriteDetected: an unsynchronized read/write pair races
// too, and the message names both sites.
func TestRaceReadWriteDetected(t *testing.T) {
	res := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 2000}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) { th.Store64(x, 1) })
		a.Thread("r", func(th *Thread) { th.Load64(x) })
	})
	if !hasKind(res, BugDataRace) {
		t.Fatalf("no data race reported; bugs: %v", res.Bugs)
	}
	found := false
	for _, b := range res.Bugs {
		if b.Kind == BugDataRace && strings.Contains(b.Message, "A/w") && strings.Contains(b.Message, "A/r") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no race message names both threads; bugs: %v", res.Bugs)
	}
}

// TestNoRaceWithMutex: the same conflicting accesses under a mutex are
// ordered by acquire/release edges.
func TestNoRaceWithMutex(t *testing.T) {
	res := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 20000}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		mu := p.NewMutex("m")
		a.Thread("t1", func(th *Thread) {
			mu.Lock(th)
			th.Store64(x, 1)
			mu.Unlock(th)
		})
		a.Thread("t2", func(th *Thread) {
			mu.Lock(th)
			th.Store64(x, 2)
			mu.Unlock(th)
		})
	})
	if bugs := raceKindBugs(res); len(bugs) != 0 {
		t.Fatalf("mutex-ordered accesses flagged: %v", bugs)
	}
}

// TestNoRaceWithJoin: JoinThreads orders the target's accesses before
// the joiner's.
func TestNoRaceWithJoin(t *testing.T) {
	res := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 20000}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		t1 := a.Thread("t1", func(th *Thread) { th.Store64(x, 1) })
		a.Thread("t2", func(th *Thread) {
			th.JoinThreads(t1)
			th.Store64(x, 2)
		})
	})
	if bugs := raceKindBugs(res); len(bugs) != 0 {
		t.Fatalf("join-ordered accesses flagged: %v", bugs)
	}
}

// TestNoRaceRMWSyncVariable: a word only ever accessed through locked
// RMW instructions is a synchronization variable, not a race, and the
// HB edges it creates order the data it publishes.
func TestNoRaceRMWSyncVariable(t *testing.T) {
	res := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 20000}, func(p *Program) {
		a := p.NewMachine("A")
		ctr := p.Alloc(8)
		a.Thread("t1", func(th *Thread) { th.FetchAdd64(ctr, 1) })
		a.Thread("t2", func(th *Thread) { th.FetchAdd64(ctr, 1) })
	})
	if bugs := raceKindBugs(res); len(bugs) != 0 {
		t.Fatalf("RMW-only word flagged: %v", bugs)
	}
}

// TestNoRaceMachineJoin: Thread.Join on a machine orders everything its
// threads did (the failure detector / termination observation).
func TestNoRaceMachineJoin(t *testing.T) {
	res := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 20000}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		a.Thread("w", func(th *Thread) {
			th.Store64(x, 1)
			th.CLFlush(x)
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			th.Load64(x)
		})
	})
	if bugs := raceKindBugs(res); len(bugs) != 0 {
		t.Fatalf("join-ordered cross-machine accesses flagged: %v", bugs)
	}
}

// TestForcedReleaseOrders: when a machine fails holding a mutex, the
// next acquirer is ordered after the dead owner's writes (it learned of
// the failure through the lock).
func TestForcedReleaseOrders(t *testing.T) {
	res := run(t, Config{GPF: true, RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 50000}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		x := p.Alloc(8)
		mu := p.NewMutex("m")
		a.Thread("w", func(th *Thread) {
			mu.Lock(th)
			th.Store64(x, 1)
			th.CLFlush(x)
			mu.Unlock(th)
		})
		b.Thread("r", func(th *Thread) {
			mu.Lock(th)
			th.Load64(x)
			mu.Unlock(th)
		})
	})
	if bugs := raceKindBugs(res); len(bugs) != 0 {
		t.Fatalf("lock-ordered accesses flagged under failure injection: %v", bugs)
	}
}

// TestRaceDetectOffByDefault: the library default leaves the detector
// off, so racy programs report nothing and the config digest matches a
// zero-value Config run.
func TestRaceDetectOffByDefault(t *testing.T) {
	res := run(t, Config{ContinueAfterBug: true, MaxExecutions: 2000}, func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("t1", func(th *Thread) { th.Store64(x, 1) })
		a.Thread("t2", func(th *Thread) { th.Store64(x, 2) })
	})
	if bugs := raceKindBugs(res); len(bugs) != 0 {
		t.Fatalf("detector off, got race bugs: %v", bugs)
	}
	if res.Stats.RaceReports != 0 {
		t.Fatalf("Stats.RaceReports = %d with detector off", res.Stats.RaceReports)
	}
}

// TestRaceDetectDigest: toggling the detector changes the config
// digest (race aborts reshape the tree), and flagged lines are part of
// it; explicitly-off matches default-off.
func TestRaceDetectDigest(t *testing.T) {
	mk := func(c Config) string {
		c.fillDefaults()
		return configDigest(c)
	}
	off := mk(Config{})
	offExplicit := mk(Config{RaceDetect: SwitchOff})
	on := mk(Config{RaceDetect: SwitchOn})
	onFlagged := mk(Config{RaceDetect: SwitchOn, UnflushedLines: []uint64{3, 1, 3}})
	if off != offExplicit {
		t.Fatalf("default digest %s != explicit-off digest %s", off, offExplicit)
	}
	if off == on {
		t.Fatalf("detector toggle does not change the digest: %s", on)
	}
	if on == onFlagged {
		t.Fatalf("flagged lines do not change the digest: %s", on)
	}
	// Flagged lines are ignored (cleared) when the detector is off.
	offFlagged := mk(Config{UnflushedLines: []uint64{1}})
	if off != offFlagged {
		t.Fatalf("UnflushedLines changed the digest with the detector off: %s vs %s", off, offFlagged)
	}
}

// TestRaceReplay: a reported race replays deterministically from its
// repro token under the same config.
func TestRaceReplay(t *testing.T) {
	cfg := Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 2000}
	prog := func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		a.Thread("t1", func(th *Thread) { th.Store64(x, 1) })
		a.Thread("t2", func(th *Thread) { th.Store64(x, 2) })
	}
	res := run(t, cfg, prog)
	var tok string
	for _, b := range res.Bugs {
		if b.Kind == BugDataRace {
			tok = b.ReproToken
			break
		}
	}
	if tok == "" {
		t.Fatal("no race repro token")
	}
	rres, err := Replay(tok, cfg, prog)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !hasKind(rres, BugDataRace) {
		t.Fatalf("replay did not reproduce the race; bugs: %v", rres.Bugs)
	}
}

// TestUnflushedPublishExposed: a statically flagged line whose
// unflushed store a crash makes visible to a reader reports
// BugUnflushedPublish.
func TestUnflushedPublishExposed(t *testing.T) {
	// data on line 1, flag on line 2 (64-byte aligned allocations from
	// heap base). The writer publishes data without flushing it; with
	// GPF off a crash loses the unflushed store, and the reader's load
	// of the flagged line after observing the failure exposes it.
	res := run(t, Config{
		RaceDetect:       SwitchOn,
		UnflushedLines:   []uint64{1},
		ContinueAfterBug: true,
		MaxExecutions:    200000,
	}, func(p *Program) {
		a := p.NewMachine("A")
		b := p.NewMachine("B")
		data := p.AllocAligned(8, 64)
		flag := p.AllocAligned(8, 64)
		a.Thread("w", func(th *Thread) {
			th.Store64(data, 42)
			th.Store64(flag, 1)
			th.CLFlush(flag)
		})
		b.Thread("r", func(th *Thread) {
			th.Join(a)
			th.Load64(flag)
			th.Load64(data)
		})
	})
	if !hasKind(res, BugUnflushedPublish) {
		t.Fatalf("no unflushed-publish bug; bugs: %v", res.Bugs)
	}
}

// TestRaceParityAcrossWorkers: RaceReports and the distinct race-bug
// set are worker-count-invariant for completing runs.
func TestRaceParityAcrossWorkers(t *testing.T) {
	prog := func(p *Program) {
		a := p.NewMachine("A")
		x := p.Alloc(8)
		y := p.Alloc(8)
		a.Thread("t1", func(th *Thread) {
			th.Store64(x, 1)
			th.Store64(y, 1)
		})
		a.Thread("t2", func(th *Thread) {
			th.Store64(y, 2)
			th.Store64(x, 2)
		})
	}
	base := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 200000}, prog)
	if !base.Complete {
		t.Fatal("serial run did not complete")
	}
	par := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 200000, Workers: 4}, prog)
	if !par.Complete {
		t.Fatal("parallel run did not complete")
	}
	if base.Stats.RaceReports != par.Stats.RaceReports {
		t.Fatalf("RaceReports differ: serial %d, workers=4 %d",
			base.Stats.RaceReports, par.Stats.RaceReports)
	}
	if len(raceKindBugs(base)) != len(raceKindBugs(par)) {
		t.Fatalf("race bug sets differ: serial %v, parallel %v", base.Bugs, par.Bugs)
	}
}

// raceMessages runs prog with the detector on and returns its race
// messages in the order found.
func raceMessages(t *testing.T, prog func(*Program)) []string {
	t.Helper()
	res := run(t, Config{RaceDetect: SwitchOn, ContinueAfterBug: true, MaxExecutions: 2000, Workers: 1}, prog)
	var out []string
	for _, b := range raceKindBugs(res) {
		out = append(out, b.Message)
	}
	return out
}

// TestRaceStraddlingAccess: an 8-byte store at an address ≡ 4 (mod 8)
// touches the last four bytes of one word and the first four of the next,
// and races with a load of either word. Each report names the load's own
// range and, for the store, the bytes of the load's word it touched.
func TestRaceStraddlingAccess(t *testing.T) {
	for _, tc := range []struct {
		word Addr // offset of the loaded word from x
		want string
	}{
		{0, "data race: load of [0x40,0x48) by A/r is unordered with store of [0x44,0x48) by A/w"},
		{8, "data race: load of [0x48,0x50) by A/r is unordered with store of [0x48,0x4c) by A/w"},
	} {
		msgs := raceMessages(t, func(p *Program) {
			a := p.NewMachine("A")
			x := p.AllocAligned(16, 64)
			a.Thread("w", func(th *Thread) { th.Store64(x+4, 1) })
			a.Thread("r", func(th *Thread) { th.Load64(x + tc.word) })
		})
		if len(msgs) != 1 || msgs[0] != tc.want {
			t.Errorf("load of word +%d: race messages %q, want %q", tc.word, msgs, tc.want)
		}
	}
}

// TestRaceDisjointBytesOfOneWord: the detector keeps one write epoch per
// thread and word, covering every byte the thread wrote there, so a 2-byte
// store to bytes no other thread wrote still races with a thread whose
// earlier 2-byte stores to the word lie on either side of it — the
// documented per-word approximation.
func TestRaceDisjointBytesOfOneWord(t *testing.T) {
	msgs := raceMessages(t, func(p *Program) {
		a := p.NewMachine("A")
		x := p.AllocAligned(8, 64)
		a.Thread("t1", func(th *Thread) {
			th.Store16(x, 1)
			th.Store16(x+6, 1)
		})
		a.Thread("t2", func(th *Thread) { th.Store16(x+2, 2) })
	})
	want := "data race: store of [0x42,0x44) by A/t2 is unordered with store of [0x40,0x48) by A/t1"
	if len(msgs) != 1 || msgs[0] != want {
		t.Errorf("race messages %q, want %q", msgs, want)
	}
}
