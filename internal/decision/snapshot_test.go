package decision

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestSnapshotRoundTripMidEnumeration is the heart of checkpoint/resume:
// interrupting an enumeration at any boundary, snapshotting, and
// restoring into a fresh tree must visit exactly the executions an
// uninterrupted run would, in the same order.
func TestSnapshotRoundTripMidEnumeration(t *testing.T) {
	walk := func(tr *Tree) string {
		s := ""
		if tr.Choose(KindFailure, 2) == 1 {
			s += "F"
			s += string(rune('a' + tr.Choose(KindReadFrom, 3)))
		} else {
			s += "-"
			if tr.Choose(KindPoison, 2) == 1 {
				s += "p"
			}
		}
		return s
	}
	ref := NewTree()
	want := enumerate(t, ref, func() string { return walk(ref) })

	// Interrupt after every possible number of completed executions.
	for cut := 1; cut < len(want); cut++ {
		tr := NewTree()
		var got []string
		for i := 0; i < cut; i++ {
			tr.Begin()
			got = append(got, walk(tr))
			if !tr.Advance() {
				t.Fatalf("cut %d: exhausted early", cut)
			}
		}
		snap := tr.Snapshot()

		resumed := NewTree()
		if err := resumed.Restore(snap); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if resumed.Executions() != cut {
			t.Fatalf("cut %d: restored execs = %d", cut, resumed.Executions())
		}
		got = append(got, enumerate(t, resumed, func() string { return walk(resumed) })...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: resumed enumeration %v, want %v", cut, got, want)
		}
		if resumed.Created(KindFailure) != ref.Created(KindFailure) ||
			resumed.Created(KindReadFrom) != ref.Created(KindReadFrom) ||
			resumed.Created(KindPoison) != ref.Created(KindPoison) {
			t.Fatalf("cut %d: creation counters diverge from uninterrupted run", cut)
		}
	}
}

// deepTree returns a tree whose pending path holds depth decision points.
func deepTree(depth int) *Tree {
	tr := NewTree()
	tr.Begin()
	for i := 0; i < depth; i++ {
		tr.Choose(KindReadFrom, 3)
	}
	tr.Advance()
	return tr
}

// TestAppendSnapshotReusesBuffer: AppendSnapshot is Snapshot into the
// caller's buffer, and with a buffer that has grown to size it allocates
// nothing — the engine takes one per worker per execution boundary.
func TestAppendSnapshotReusesBuffer(t *testing.T) {
	tr := deepTree(64)
	buf := tr.AppendSnapshot(nil)
	if !bytes.Equal(buf, tr.Snapshot()) {
		t.Fatal("AppendSnapshot(nil) differs from Snapshot()")
	}
	if got := tr.AppendSnapshot(append(buf[:0], "prefix"...)); !bytes.Equal(got[6:], tr.Snapshot()) || string(got[:6]) != "prefix" {
		t.Fatal("AppendSnapshot does not append to what the buffer holds")
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = tr.AppendSnapshot(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendSnapshot into a sized buffer allocates %.0f times, want 0", allocs)
	}
}

func BenchmarkAppendSnapshot(b *testing.B) {
	for _, depth := range []int{32, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			tr := deepTree(depth)
			buf := tr.AppendSnapshot(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = tr.AppendSnapshot(buf[:0])
			}
		})
	}
}

// TestSnapshotOfExhaustedTree round-trips the done flag.
func TestSnapshotOfExhaustedTree(t *testing.T) {
	tr := NewTree()
	enumerate(t, tr, func() string { tr.Choose(KindReadFrom, 2); return "" })
	if !tr.Done() {
		t.Fatal("tree not done")
	}
	re := NewTree()
	if err := re.Restore(tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !re.Done() || re.Advance() {
		t.Fatal("restored tree lost exhaustion")
	}
	if re.Executions() != tr.Executions() {
		t.Fatalf("executions = %d, want %d", re.Executions(), tr.Executions())
	}
}

// TestRestoreRejectsCorruptSnapshots: stale or damaged checkpoint bytes
// must error, never silently restore garbage.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	tr := NewTree()
	tr.Begin()
	tr.Choose(KindFailure, 2)
	tr.Advance()
	good := tr.Snapshot()

	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte{0x00}, good[1:]...),
		"bad version":     append([]byte{snapshotMagic, 99}, good[2:]...),
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte{}, good...), 0xFF),
		"path as tree":    EncodePath([]Step{{Kind: KindFailure, N: 2, Chosen: 0}}),
		"bogus kind":      {snapshotMagic, snapshotVersion, 0, 0, 0, 0, 0, 1, 77, 2, 0},
		"chosen >= arity": {snapshotMagic, snapshotVersion, 0, 0, 0, 0, 0, 1, 0, 2, 5},
	}
	for name, data := range cases {
		fresh := NewTree()
		if err := fresh.Restore(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	// And the pristine bytes still restore.
	if err := NewTree().Restore(good); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
}

// TestPathEncodeDecodeRoundTrip covers the repro-token payload.
func TestPathEncodeDecodeRoundTrip(t *testing.T) {
	steps := []Step{
		{Kind: KindFailure, N: 2, Chosen: 1},
		{Kind: KindReadFrom, N: 7, Chosen: 4},
		{Kind: KindPoison, N: 2, Chosen: 0},
	}
	got, err := DecodePath(EncodePath(steps))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, steps) {
		t.Fatalf("round trip %v, want %v", got, steps)
	}
	if _, err := DecodePath([]byte{pathMagic}); err == nil {
		t.Error("truncated path accepted")
	}
	if _, err := DecodePath(NewTree().Snapshot()); err == nil {
		t.Error("tree snapshot accepted as a path")
	}
}

// TestPathCapturesCurrentExecution: Path reflects exactly the decisions
// since Begin, not stale deeper nodes from a previous execution.
func TestPathCapturesCurrentExecution(t *testing.T) {
	tr := NewTree()
	tr.Begin()
	tr.Choose(KindFailure, 2)
	tr.Choose(KindReadFrom, 3)
	tr.Advance()
	tr.Begin()
	tr.Choose(KindFailure, 2)
	// Second execution stops after one decision: Path must have depth 1.
	p := tr.Path()
	if len(p) != 1 || p[0].Kind != KindFailure {
		t.Fatalf("path = %v, want the single failure step", p)
	}
}

// TestReplayTreeReplaysExactPath: a tree built from a recorded path
// yields the recorded branches, and fresh decisions past the prefix
// default to branch 0.
func TestReplayTreeReplaysExactPath(t *testing.T) {
	steps := []Step{
		{Kind: KindFailure, N: 2, Chosen: 1},
		{Kind: KindReadFrom, N: 3, Chosen: 2},
	}
	tr := newReplayTree(steps, false)
	tr.Begin()
	if got := tr.Choose(KindFailure, 2); got != 1 {
		t.Fatalf("step 0 = %d, want 1", got)
	}
	if got := tr.Choose(KindReadFrom, 3); got != 2 {
		t.Fatalf("step 1 = %d, want 2", got)
	}
	if got := tr.Choose(KindPoison, 2); got != 0 {
		t.Fatalf("fresh decision = %d, want default branch 0", got)
	}
}

// TestReplayTreeStrictDivergence: in strict mode a disagreeing Choose
// panics with a Divergence describing the mismatch.
func TestReplayTreeStrictDivergence(t *testing.T) {
	tr := newReplayTree([]Step{{Kind: KindFailure, N: 2, Chosen: 1}}, false)
	tr.Begin()
	defer func() {
		d, ok := recover().(Divergence)
		if !ok {
			t.Fatalf("expected a Divergence panic, got %v", d)
		}
		if d.Depth != 0 {
			t.Fatalf("divergence depth = %d", d.Depth)
		}
	}()
	tr.Choose(KindReadFrom, 2) // kind mismatch with the recorded step
}

// TestReplayTreeLenientDivergence: lenient mode trims the recorded
// suffix and continues with fresh decisions — the behaviour token
// minimization relies on after perturbing a path.
func TestReplayTreeLenientDivergence(t *testing.T) {
	steps := []Step{
		{Kind: KindFailure, N: 2, Chosen: 0},
		{Kind: KindReadFrom, N: 3, Chosen: 2}, // becomes unreachable after the flip
	}
	tr := newReplayTree(steps, true)
	tr.Begin()
	tr.Choose(KindFailure, 2)
	if got := tr.Choose(KindPoison, 2); got != 0 {
		t.Fatalf("lenient divergence chose %d, want fresh branch 0", got)
	}
	p := tr.Path()
	if len(p) != 2 || p[1].Kind != KindPoison {
		t.Fatalf("executed path = %v, want the trimmed+fresh sequence", p)
	}
}

// newReplayTree is a new tree Reset to replay steps.
func newReplayTree(steps []Step, lenient bool) *Tree {
	t := NewTree()
	t.Reset(steps, lenient)
	return t
}
