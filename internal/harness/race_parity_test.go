package harness

import (
	"fmt"
	"sync"
	"testing"

	cxlmc "repro"
	"repro/internal/dist"
	"repro/internal/recipe"
)

// The race-detector parity suite: the RaceVariant programs (one insert
// worker racing — or not — with an observer on another machine) must be
// flagged by the happens-before detector exactly when the race is
// seeded, with identical results serially, under four workers, and
// across a distributed coordinator/worker pair, and race repro tokens
// must replay.

// raceKindBugs filters the detector's bug kinds out of a result.
func raceKindBugs(res *cxlmc.Result) []cxlmc.Bug {
	var out []cxlmc.Bug
	for _, b := range res.Bugs {
		if b.Kind == cxlmc.BugDataRace || b.Kind == cxlmc.BugUnflushedPublish {
			out = append(out, b)
		}
	}
	return out
}

func raceCfg(workers int) cxlmc.Config {
	return cxlmc.Config{
		Workers: workers, ContinueAfterBug: true, MaxExecutions: 2_000_000,
		RaceDetect: cxlmc.SwitchOn,
	}
}

// TestRaceVariantParity: for two RECIPE structures (the Table 5
// acceptance workload and the lock-free-lookup hash table), the seeded
// variant yields at least one data race in every mode with the same
// distinct-bug set and the same pre-dedup report count serially and
// under four workers, the race token replays, and the race-free variant
// yields zero detector bugs and zero reports.
func TestRaceVariantParity(t *testing.T) {
	for _, name := range []string{"CCEH", "P-CLHT"} {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("benchmark %q missing", name)
		}
		t.Run(name, func(t *testing.T) {
			seeded := RaceVariant(b, 3, true)
			free := RaceVariant(b, 3, false)

			ser, err := cxlmc.Run(raceCfg(1), seeded)
			if err != nil {
				t.Fatal(err)
			}
			if !ser.Complete {
				t.Fatal("seeded serial exploration incomplete")
			}
			races := raceKindBugs(ser)
			if len(races) == 0 {
				t.Fatalf("seeded variant: no data race detected; bugs: %v", ser.Bugs)
			}
			if ser.RaceReports == 0 {
				t.Fatal("seeded variant: Stats.RaceReports is zero despite race bugs")
			}

			par, err := cxlmc.Run(raceCfg(4), seeded)
			if err != nil {
				t.Fatal(err)
			}
			sameBugs(t, "seeded serial", ser, "seeded workers=4", par)
			if par.RaceReports != ser.RaceReports {
				t.Fatalf("race reports diverged: serial %d, workers=4 %d", ser.RaceReports, par.RaceReports)
			}

			// Every race token must replay to the same race.
			replayAll(t, "seeded serial", ser, cxlmc.Config{RaceDetect: cxlmc.SwitchOn}, seeded)

			clean, err := cxlmc.Run(raceCfg(1), free)
			if err != nil {
				t.Fatal(err)
			}
			if !clean.Complete {
				t.Fatal("race-free exploration incomplete")
			}
			if got := raceKindBugs(clean); len(got) != 0 {
				t.Fatalf("race-free variant flagged: %v", got)
			}
			if clean.RaceReports != 0 {
				t.Fatalf("race-free variant: %d race reports, want 0", clean.RaceReports)
			}
			t.Logf("%s: %d distinct race bug(s), %d report(s), %d/%d execs (seeded/free)",
				name, len(races), ser.RaceReports, ser.Executions, clean.Executions)
		})
	}
}

// TestRaceParityDistributed: a coordinator with two HTTP workers
// exploring the seeded CCEH variant reports exactly the serial run's
// distinct-bug set and pre-dedup race-report count — the wire
// round-trip of the RaceReports delta and the digest handshake with
// RaceDetect folded in.
func TestRaceParityDistributed(t *testing.T) {
	b, _ := ByName("CCEH")
	seeded := RaceVariant(b, 3, true)
	check := cxlmc.Config{ContinueAfterBug: true, RaceDetect: cxlmc.SwitchOn}

	ser, err := cxlmc.Run(raceCfg(1), seeded)
	if err != nil {
		t.Fatal(err)
	}

	c, err := dist.StartCoordinator(dist.CoordinatorConfig{
		Check: check, Program: seeded, Addr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := dist.RunWorker(dist.WorkerConfig{
				Check: check, Program: seeded,
				Coordinator: c.Addr(), Name: fmt.Sprintf("w%d", i),
			}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	res, err := c.Wait(nil)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatal("distributed run incomplete")
	}
	if len(raceKindBugs(res)) == 0 {
		t.Fatalf("distributed run missed the seeded race; bugs: %v", res.Bugs)
	}
	sameBugs(t, "distributed", res, "serial", ser)
	if res.RaceReports != ser.RaceReports {
		t.Fatalf("race reports diverged over the wire: distributed %d, serial %d", res.RaceReports, ser.RaceReports)
	}
	replayAll(t, "distributed", res, cxlmc.Config{RaceDetect: cxlmc.SwitchOn}, seeded)
	t.Logf("distributed race parity: %d report(s) across %d execs", res.RaceReports, res.Executions)
}

// RaceVariant builds a two-machine program over benchmark b's index for
// exercising the happens-before race detector. node0 constructs the
// index, publishes it with a flushed ready flag, and runs one insert
// worker using the commit-store pattern; node1 runs a fully-joined
// checker plus an observer thread that loads the ready flag, the commit
// flags and the index.
//
// With seeded=true the observer synchronizes only with construction, so
// its loads of the commit flags (plain Store64s by the worker) race by
// construction — every exploration of the variant must report at least
// one data race. With seeded=false the observer additionally joins the
// worker, fully ordering its loads: the variant must report none.
//
// The observer asserts nothing and the seeded races are benign under
// x86-TSO (the worker flushes each commit flag after the index stores
// it covers), so both variants surface the same — empty — set of
// crash-consistency bugs from the fixed (bugs=0) structures; the only
// delta between them is the detector's.
func RaceVariant(b recipe.Benchmark, keys int, seeded bool) func(*cxlmc.Program) {
	if keys <= 0 {
		keys = 3
	}
	return func(p *cxlmc.Program) {
		idx := b.New(p, 0)
		ready := p.AllocAligned(8, 64)
		progress := p.AllocAligned(uint64(keys)*8, 64)
		node0 := p.NewMachine("node0")
		node1 := p.NewMachine("node1")

		initT := node0.Thread("init", func(t *cxlmc.Thread) {
			idx.Init(t)
			t.Store64(ready, 1)
			t.CLFlush(ready)
			t.SFence()
		})
		worker := node0.Thread("w0", func(t *cxlmc.Thread) {
			t.JoinThreads(initT)
			if t.Load64(ready) != 1 {
				return
			}
			for k := keys; k >= 1; k-- {
				key := uint64(k)
				idx.Insert(t, key, recipe.Value(key))
				t.Store64(progress+cxlmc.Addr((k-1)*8), 1)
				t.CLFlush(progress + cxlmc.Addr((k-1)*8))
				t.SFence()
			}
		})

		node1.Thread("obs", func(t *cxlmc.Thread) {
			if seeded {
				t.JoinThreads(initT) // not the worker: commit-flag loads race
			} else {
				t.JoinThreads(initT, worker)
			}
			if t.Load64(ready) != 1 {
				return
			}
			for k := 1; k <= keys; k++ {
				if t.Load64(progress+cxlmc.Addr((k-1)*8)) == 1 {
					idx.Lookup(t, uint64(k))
				}
			}
		})
		node1.Thread("check", func(t *cxlmc.Thread) {
			t.JoinThreads(initT, worker)
			if t.Load64(ready) != 1 {
				return
			}
			for k := 1; k <= keys; k++ {
				key := uint64(k)
				if t.Load64(progress+cxlmc.Addr((k-1)*8)) != 1 {
					continue
				}
				v, found := idx.Lookup(t, key)
				t.Assert(found, "committed key %d missing after failure", k)
				t.Assert(v == recipe.Value(key), "committed key %d has value %#x, want %#x", k, v, recipe.Value(key))
			}
		})
	}
}
