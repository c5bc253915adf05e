package decision

import (
	"reflect"
	"sort"
	"testing"
)

// skewedWalk is a deterministic "program" whose decision tree is deep on
// one side and shallow on the other — the shape work stealing exists for.
func skewedWalk(tr *Tree) string {
	s := ""
	if tr.Choose(KindFailure, 2) == 1 {
		s += "F"
		for i := 0; i < 3; i++ {
			s += string(rune('a' + tr.Choose(KindReadFrom, 3)))
		}
	} else {
		s += "-"
		if tr.Choose(KindPoison, 2) == 1 {
			s += "p"
		}
	}
	return s
}

// TestSubtreePartitionIsExact is the parity core of parallel exploration:
// however often a tree is split into subtree work units, the units
// together visit exactly the serial run's executions — no leaf lost, no
// leaf duplicated — and their creation counters sum to the serial totals.
func TestSubtreePartitionIsExact(t *testing.T) {
	ref := NewTree()
	want := enumerate(t, ref, func() string { return skewedWalk(ref) })

	// Split at every possible cadence, including "never" and "every
	// boundary", simulating a work-stealing run with a unit queue.
	for cadence := 1; cadence <= len(want)+1; cadence++ {
		queue := []*Tree{NewTree()}
		var got []string
		var created [numKinds]int
		execs := 0
		for len(queue) > 0 {
			tr := queue[0]
			queue = queue[1:]
			for round := 1; ; round++ {
				tr.Begin()
				got = append(got, skewedWalk(tr))
				execs++
				if !tr.Advance() {
					break
				}
				if round%cadence == 0 {
					queue = append(queue, tr.Split()...)
				}
			}
			for k := Kind(0); k < numKinds; k++ {
				created[k] += tr.Created(k)
			}
		}
		if execs != len(want) {
			t.Fatalf("cadence %d: %d executions, want %d", cadence, execs, len(want))
		}
		sortedGot := append([]string(nil), got...)
		sortedWant := append([]string(nil), want...)
		sort.Strings(sortedGot)
		sort.Strings(sortedWant)
		if !reflect.DeepEqual(sortedGot, sortedWant) {
			t.Fatalf("cadence %d: leaves %v, want %v", cadence, sortedGot, sortedWant)
		}
		for k := Kind(0); k < numKinds; k++ {
			if created[k] != ref.Created(k) {
				t.Fatalf("cadence %d: created[%v] = %d, want %d", cadence, k, created[k], ref.Created(k))
			}
		}
	}
}

// TestSplitCapsVictim: after Split the victim's fixed prefix grows, so
// re-splitting at the same depth finds nothing and the victim's own DFS
// never re-enters a donated branch.
func TestSplitCapsVictim(t *testing.T) {
	tr := NewTree()
	tr.Begin()
	tr.Choose(KindReadFrom, 3) // branch 0 of 3
	tr.Choose(KindFailure, 2)
	if !tr.Advance() {
		t.Fatal("expected more branches")
	}
	units := tr.Split() // donates read-from branches 1 and 2
	if len(units) != 2 {
		t.Fatalf("donated %d units, want 2", len(units))
	}
	// The victim finishes only the failure branch under read-from 0.
	rest := enumerate(t, tr, func() string {
		a := tr.Choose(KindReadFrom, 3)
		b := tr.Choose(KindFailure, 2)
		return string(rune('0'+a)) + string(rune('0'+b))
	})
	if !reflect.DeepEqual(rest, []string{"01"}) {
		t.Fatalf("victim explored %v, want [01]", rest)
	}
	// Each unit covers exactly its donated subtree.
	for i, u := range units {
		wantBranch := rune('1' + i)
		leaves := enumerate(t, u, func() string {
			a := u.Choose(KindReadFrom, 3)
			b := u.Choose(KindFailure, 2)
			return string(rune('0'+a)) + string(rune('0'+b))
		})
		want := []string{string(wantBranch) + "0", string(wantBranch) + "1"}
		if !reflect.DeepEqual(leaves, want) {
			t.Fatalf("unit %d explored %v, want %v", i, leaves, want)
		}
	}
}

// TestSubtreeSnapshotRoundTrip: a work unit interrupted mid-subtree
// restores with its fixed prefix intact and finishes exactly the
// remaining executions.
func TestSubtreeSnapshotRoundTrip(t *testing.T) {
	ref := NewTree()
	all := enumerate(t, ref, func() string { return skewedWalk(ref) })

	tr := NewTree()
	tr.Begin()
	got := []string{skewedWalk(tr)}
	if !tr.Advance() {
		t.Fatal("exhausted early")
	}
	units := tr.Split()
	if len(units) == 0 {
		t.Fatal("nothing donated")
	}
	// Run the first donated unit one execution deep, snapshot, restore.
	u := units[0]
	u.Begin()
	got = append(got, skewedWalk(u))
	if !u.Advance() {
		t.Fatal("unit exhausted early")
	}
	re := NewTree()
	if err := re.Restore(u.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if re.fixed != u.fixed {
		t.Fatalf("restored fixed = %d, want %d", re.fixed, u.fixed)
	}
	got = append(got, enumerate(t, re, func() string { return skewedWalk(re) })...)
	got = append(got, enumerate(t, tr, func() string { return skewedWalk(tr) })...)
	for _, u := range units[1:] {
		got = append(got, enumerate(t, u, func() string { return skewedWalk(u) })...)
	}
	sort.Strings(got)
	want := append([]string(nil), all...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("leaves %v, want %v", got, want)
	}
}

// TestLenientReplayCountsOnlyFreshDecisions is the regression test for
// the lenient-mode accounting fix: nodes that merely replace a truncated
// stale suffix must not inflate the creation counters, while decisions
// past the recorded path still count.
func TestLenientReplayCountsOnlyFreshDecisions(t *testing.T) {
	recorded := []Step{
		{Kind: KindFailure, N: 2, Chosen: 0},
		{Kind: KindReadFrom, N: 3, Chosen: 2}, // unreachable after the flip below
	}
	tr := NewReplayTree(recorded, true)
	tr.Begin()
	tr.Choose(KindFailure, 2)
	// Divergence: the replayed program asks for a poison decision where a
	// read-from was recorded; lenient mode truncates and re-derives.
	if got := tr.Choose(KindPoison, 2); got != 0 {
		t.Fatalf("lenient divergence chose %d, want 0", got)
	}
	if got := tr.Created(KindPoison); got != 0 {
		t.Fatalf("replacement node counted: created[poison] = %d, want 0", got)
	}
	// A decision past the recorded depth is genuinely fresh.
	tr.Choose(KindReadFrom, 2)
	if got := tr.Created(KindReadFrom); got != 1 {
		t.Fatalf("fresh node not counted: created[read-from] = %d, want 1", got)
	}
	if got := tr.Created(KindFailure); got != 0 {
		t.Fatalf("replayed node counted: created[failure] = %d, want 0", got)
	}
}

// NewSubtree returns a work unit covering exactly the executions beneath
// prefix: the preloaded nodes are fixed (they replay but never advance),
// so the unit's DFS exhausts the subtree rooted at the prefix's last
// branch and then reports done. Prefix nodes count toward neither this
// unit's creation statistics nor its fresh-decision accounting — their
// creator already counted them.
func NewSubtree(prefix []Step) *Tree {
	t := &Tree{fixed: len(prefix), recorded: len(prefix)}
	t.nodes = make([]node, len(prefix))
	for i, s := range prefix {
		t.nodes[i] = node{kind: s.Kind, n: s.N, chosen: s.Chosen}
	}
	return t
}
