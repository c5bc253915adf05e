package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The edge shapes of a load taken a run at a time (memops.go: load,
// cacheRun): every row's numbers were recorded from the commit before runs
// existed, which resolved the same loads byte by byte, so a run that forms
// where a byte would have decided, refined or reported something shows up
// here as a different tree.

// shapeWant is what one shape explores, complete, under any worker count
// and with prefix-fork on or off; tokens is the digest of the serial run's
// repro tokens (tokenDigest).
type shapeWant struct {
	execs                     int
	steps                     int64
	fpoints, rfpoints, poison int
	bugs                      []string
	tokens                    string
}

// twoMachines builds the writer/reader pair every shape uses: r runs after
// machine A has quiesced or failed.
func twoMachines(p *Program, w, r func(*Thread)) {
	a, b := p.NewMachine("A"), p.NewMachine("B")
	a.Thread("w", w)
	b.Thread("r", func(th *Thread) {
		th.Join(a)
		r(th)
	})
}

// straddle loads a word that spans two cache lines after a store to it that
// only persisted on one of them, and a second that did on neither.
func straddle(p *Program) {
	base := p.AllocAligned(128, 64)
	x := base + 60
	twoMachines(p, func(th *Thread) {
		th.Store64(x, 0x1122334455667788)
		th.CLFlush(base)
		th.SFence()
		th.Store64(x, 0x99aabbccddeeff00)
	}, func(th *Thread) {
		v := th.Load64(x)
		th.Assert(v == 0x99aabbccddeeff00, "read %#x", v)
	})
}

// straddleBugs are the torn and stale words straddle's reader can see.
var straddleBugs = []string{"assertion: read 0x0", "assertion: read 0x1122334400000000", "assertion: read 0x1122334455667788",
	"assertion: read 0x11223344ddeeff00", "assertion: read 0x55667788", "assertion: read 0x99aabbcc55667788", "assertion: read 0xddeeff00"}

var shapes = []struct {
	name string
	cfg  Config
	prog func(*Program)
	want shapeWant
}{
	{name: "straddles two lines", prog: straddle,
		want: shapeWant{10, 139, 1, 8, 0, straddleBugs, "54647bfcb65c02c9"}},
	{name: "straddles two lines, eager read set", cfg: Config{EagerReadSet: true}, prog: straddle,
		want: shapeWant{10, 139, 1, 6, 0, straddleBugs, "81c0a2a7eacc8907"}},
	{
		// The newest store covers one byte of the word: the bytes below it
		// and above it come from the older store, as runs of their own.
		name: "one-byte store inside a word",
		prog: func(p *Program) {
			x := p.AllocAligned(8, 64)
			twoMachines(p, func(th *Thread) {
				th.Store64(x, 0x0101010101010101)
				th.CLFlush(x)
				th.SFence()
				th.Store8(x+3, 0xff)
			}, func(th *Thread) {
				v := th.Load64(x)
				th.Assert(v == 0x01010101ff010101, "read %#x", v)
			})
		},
		want: shapeWant{4, 49, 1, 2, 0, []string{"assertion: read 0x0", "assertion: read 0x101010101010101"}, "9dc62c8700afd8ef"},
	},
	{
		// The reader's own store to the upper half still sits in its store
		// buffer when it loads the word: a runnable thread is all but always
		// preferred to a commit.
		name: "word half covered by the store buffer",
		cfg:  Config{CommitChance: 1},
		prog: func(p *Program) {
			x := p.AllocAligned(8, 64)
			twoMachines(p, func(th *Thread) {
				th.Store64(x, 0x1111111122222222)
			}, func(th *Thread) {
				th.Store32(x+4, 0x33333333)
				v := th.Load64(x)
				th.Assert(v == 0x3333333322222222, "read %#x", v)
			})
		},
		want: shapeWant{2, 18, 0, 1, 0, []string{"assertion: read 0x3333333300000000"}, "4870454ee014d8e0"},
	},
	{
		name: "lost store on a flagged line",
		cfg:  Config{RaceDetect: SwitchOn, UnflushedLines: []uint64{1}},
		prog: func(p *Program) {
			x := p.AllocAligned(8, 64) // line 1: the first allocation
			twoMachines(p, func(th *Thread) {
				th.Store64(x, 1)
			}, func(th *Thread) {
				th.Load64(x)
			})
		},
		want: shapeWant{2, 13, 0, 1, 0, []string{"unflushed-publish: unflushed publish exposed by crash: B/r reads σ0 at 0x40 on flagged line 1, losing unflushed store σ1 by failed machine A"}, "c869c11f86467c19"},
	},
	{
		name: "poisoned line",
		cfg:  Config{Poison: true},
		prog: func(p *Program) {
			x := p.AllocAligned(16, 64)
			twoMachines(p, func(th *Thread) {
				th.Store64(x, 1)
				th.CLFlush(x)
				th.SFence()
				th.Store64(x+8, 2)
				th.CLFlush(x + 8)
				th.SFence()
			}, func(th *Thread) {
				th.Load64(x)
				th.Load64(x + 8)
			})
		},
		want: shapeWant{5, 79, 2, 0, 2, []string{
			"poison: read of poisoned cache line 1 at 0x40 (store σ1 chosen lost)",
			"poison: read of poisoned cache line 1 at 0x40 (store σ4 chosen lost)"}, "8e7f3efebca4a325"},
	},
}

// tokenDigest condenses a serial run's repro tokens, in bug-line order.
func tokenDigest(bugs []Bug) string {
	lines := make([]string, len(bugs))
	for i, b := range bugs {
		lines[i] = b.Kind.String() + ": " + b.Message + " " + b.ReproToken
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

func TestRunEdgeShapes(t *testing.T) {
	for _, sh := range shapes {
		for _, fork := range []Switch{SwitchOn, SwitchOff} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/fork=%v/workers=%d", sh.name, fork == SwitchOn, workers), func(t *testing.T) {
					cfg := sh.cfg
					cfg.ContinueAfterBug, cfg.PrefixFork, cfg.Workers = true, fork, workers
					res := run(t, cfg, sh.prog)
					if !res.Complete {
						t.Fatal("incomplete")
					}
					got := shapeWant{res.Executions, res.Steps, res.FailurePoints, res.ReadFromPoints, res.PoisonPoints,
						bugSet(res.Bugs), sh.want.tokens}
					if workers == 1 {
						// Which execution meets a bug first, and so its
						// token, is only pinned serially.
						got.tokens = tokenDigest(res.Bugs)
					}
					if !reflect.DeepEqual(got, sh.want) {
						t.Errorf("explored\n%#v\nthe byte-by-byte parent explored\n%#v", got, sh.want)
					}
					for _, b := range res.Bugs {
						rep, err := Replay(b.ReproToken, cfg, sh.prog)
						if err != nil || len(rep.Bugs) != 1 || rep.Bugs[0].Kind != b.Kind || rep.Bugs[0].Message != b.Message {
							t.Errorf("token of %q replays to %v, %v", b.Message, rep, err)
						}
					}
				})
			}
		}
	}
}

// TestCorruptRunLengthIsAnInternalError: the prefix-fork fast path takes a
// settled run's value from its loadLog record, so a record whose length is
// not the run's must end the exploration as a checker invariant, never
// reach the program as a value. The length is corrupted both ways — shorter
// than the word, so the bytes left ask for a record that is not theirs, and
// longer than any load.
func TestCorruptRunLengthIsAnInternalError(t *testing.T) {
	const word = 0x0807060504030201
	for _, length := range []uint8{4, 9} {
		caught := false
		for seed := int64(0); seed < 16; seed++ {
			wrong := false
			_, err := Run(Config{Seed: seed, Workers: 1}, func(p *Program) {
				// Set-up of an execution about to replay the last one's logs.
				if ck := p.ck; ck.forkOK && len(ck.loadLog) > 0 {
					ck.loadLog[0].n = length
				}
				a, b := p.NewMachine("A"), p.NewMachine("B")
				y := p.Alloc(8)
				p.Init64(y, word)
				x := p.AllocAligned(8, 64)
				b.Thread("r", func(th *Thread) {
					for i := 0; i < 2; i++ {
						if th.Load64(y) != word {
							wrong = true
						}
					}
					th.Join(a)
					th.Load64(x)
				})
				a.Thread("w", func(th *Thread) {
					th.Store64(x, 1)
					th.CLFlush(x)
					th.SFence()
				})
			})
			if wrong {
				t.Fatalf("length %d, seed %d: a corrupt record was read as a value", length, seed)
			}
			if err == nil {
				continue // every fork came before r's first load
			}
			ie, ok := err.(*InternalError)
			if !ok || !strings.Contains(ie.Msg, "prefix-fork: recorded run does not fit") {
				t.Fatalf("length %d, seed %d: err = %v, want the prefix-fork invariant as an InternalError", length, seed, err)
			}
			caught = true
		}
		if !caught {
			t.Fatalf("length %d: no seed replayed the corrupted record", length)
		}
	}
}
