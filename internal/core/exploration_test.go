package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/gofront"
	"repro/internal/harness"
	"repro/internal/recipe"
)

var update = flag.Bool("update", false, "rewrite testdata/exploration.golden from this build's explorations")

const explorationGolden = "testdata/exploration.golden"

// TestExplorationPinned pins what the checker explores, so a change that
// must not move the explored set is checked by a test and not by a diff
// against a parent binary. The inputs are the twelve Table 5 rows (as
// cxlbench runs them: race detection on, the vet-flagged lines armed),
// examples/src/cceh.go through gofront, and 300 generated programs. For
// each, a serial run under an observer pins a SHA-256 over every
// execution's σ-stamped op stream in execution order, every counter a
// serial run promises, and a digest of the sorted bugs with their repro
// tokens; a run at four workers pins what Stats promises across worker
// counts — the counts and the bug set — and replays every token it
// reports. Regenerate with -update, and only
// for a change that means to move the tree.
func TestExplorationPinned(t *testing.T) {
	var got []string
	for _, in := range pinnedInputs(t) {
		got = append(got, serialPin(t, in), parallelPin(t, in))
	}
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(explorationGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(explorationGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%d pinned lines, the golden has %d", len(got), len(wantLines))
	}
	moved := 0
	for i := range got {
		if got[i] != wantLines[i] {
			if moved++; moved <= 10 {
				t.Errorf("explored\n  %s\nthe golden pins\n  %s", got[i], wantLines[i])
			}
		}
	}
	if moved > 10 {
		t.Errorf("... and %d more", moved-10)
	}
}

type pinnedInput struct {
	name string
	cfg  core.Config
	prog func(*core.Program)
}

func pinnedInputs(t *testing.T) []pinnedInput {
	t.Helper()
	var ins []pinnedInput
	for _, gpf := range []bool{false, true} {
		for _, b := range harness.Benchmarks {
			prog := recipe.Program(b, harness.Table5Config())
			cfg := core.Config{Workers: 1, RaceDetect: core.SwitchOn}
			rep, err := analyze.Vet(cfg, prog)
			if err != nil {
				t.Fatalf("%s: vet: %v", b.Name, err)
			}
			cfg.UnflushedLines, cfg.GPF = rep.FlaggedLines(), gpf
			name := b.Name
			if gpf {
				name += "_GPF"
			}
			ins = append(ins, pinnedInput{"table5/" + name, cfg, prog})
		}
	}
	const ccehSource = "examples/src/cceh.go"
	src, err := os.ReadFile(filepath.Join("..", "..", ccehSource))
	if err != nil {
		t.Fatal(err)
	}
	s, err := gofront.Load(ccehSource, src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Program("Program")
	if err != nil {
		t.Fatal(err)
	}
	ins = append(ins, pinnedInput{"source_cceh", core.Config{ContinueAfterBug: true}, prog})
	for seed := int64(0); seed < 300; seed++ {
		ins = append(ins, pinnedInput{fmt.Sprintf("generated/%d", seed),
			core.Config{ContinueAfterBug: true}, harness.Generate(seed, harness.GenConfig{})})
	}
	return ins
}

// serialPin runs in under a stream-digesting observer (which makes the
// run serial) and renders everything a serial run promises.
func serialPin(t *testing.T, in pinnedInput) string {
	t.Helper()
	d := &streamDigest{h: sha256.New()}
	cfg := in.cfg
	cfg.Observer = d
	res, err := core.Run(cfg, in.prog)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	return fmt.Sprintf("%s serial %s events=%d stream=%x tokens=%s",
		in.name, counts(res), d.n, d.h.Sum(nil)[:16], bugDigest(res.Bugs, true))
}

// parallelPin runs in at four workers and renders what a complete run
// promises across worker counts: the counts and the bug set. Which
// execution meets a bug first, and so its token, is timing's choice here,
// so the tokens are not pinned but replayed.
func parallelPin(t *testing.T, in pinnedInput) string {
	t.Helper()
	cfg := in.cfg
	cfg.Workers = 4
	res, err := core.Run(cfg, in.prog)
	if err != nil {
		t.Fatalf("%s at 4 workers: %v", in.name, err)
	}
	for _, b := range res.Bugs {
		rep, err := core.Replay(b.ReproToken, cfg, in.prog)
		if err != nil || len(rep.Bugs) != 1 || rep.Bugs[0].Kind != b.Kind || rep.Bugs[0].Message != b.Message {
			t.Errorf("%s at 4 workers: the token of %q replays to %v, %v", in.name, b.Message, rep, err)
		}
	}
	return fmt.Sprintf("%s workers=4 %s bugs=%s", in.name, counts(res), bugDigest(res.Bugs, false))
}

func counts(res *core.Result) string {
	c := res.Counters
	return fmt.Sprintf("complete=%v execs=%d steps=%d fpoints=%d rfpoints=%d ppoints=%d pruned=%d races=%d",
		res.Complete, c.Executions, c.Steps, c.FailurePoints, c.ReadFromPoints, c.PoisonPoints, c.Pruned, c.RaceReports)
}

// bugDigest condenses the sorted bug lines, with their repro tokens when
// tokens is set (the shape of tokenDigest in runs_test.go).
func bugDigest(bugs []core.Bug, tokens bool) string {
	lines := make([]string, len(bugs))
	for i, b := range bugs {
		lines[i] = b.Kind.String() + ": " + b.Message
		if tokens {
			lines[i] += " " + b.ReproToken
		}
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%d:%s", len(bugs), hex.EncodeToString(sum[:8]))
}

// streamDigest folds every observed event, in order, into one hash. The
// names are left out: they are the IDs' names, fixed by the set-up.
type streamDigest struct {
	h   hash.Hash
	buf []byte
	n   int
}

func (d *streamDigest) Op(ev core.OpEvent) {
	b := append(d.buf[:0], byte(ev.Kind), byte(ev.Cause), ev.Size)
	if ev.Opt {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for _, v := range [...]uint64{uint64(ev.Machine), uint64(ev.Thread), uint64(ev.Failed), uint64(ev.Step),
		uint64(ev.Seq), uint64(ev.Addr), ev.Val, uint64(ev.Line), uint64(ev.Ref), uint64(ev.Mutex)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	if ev.Bug != nil {
		b = append(b, ev.Bug.String()...)
	}
	d.buf = b
	d.h.Write(b)
	d.n++
}
