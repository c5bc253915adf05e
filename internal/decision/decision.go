// Package decision implements the depth-first decision-tree search at the
// heart of CXLMC's exploration (paper §5): every choice the checker makes
// during an execution — which store a load reads from, whether a failure
// is injected at a flush — is recorded in a node stack. Replaying an
// execution consumes the stack; when execution runs past the recorded
// prefix, fresh decision points default to their first branch and are
// pushed. After an execution completes, Advance backtracks to the deepest
// unexhausted node, and the next execution explores its next branch.
package decision

import "fmt"

// Kind labels what a decision point chooses, for statistics and replay
// validation.
type Kind uint8

// Decision point kinds.
const (
	// KindReadFrom chooses between taking the current read-from candidate
	// and continuing the search (the binary encoding of §4.5).
	KindReadFrom Kind = iota
	// KindFailure chooses whether to inject a machine failure instead of
	// letting a flush commit (Algorithm 5, line 16).
	KindFailure
	// KindPoison chooses whether a cache line whose latest store falls
	// inside its constraint window becomes poisoned (§4.2 side note).
	KindPoison
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindReadFrom:
		return "read-from"
	case KindFailure:
		return "failure-injection"
	case KindPoison:
		return "poison"
	}
	return "unknown"
}

type node struct {
	kind   Kind
	n      int // number of branches
	chosen int // branch taken on the current path
}

// Tree is the decision tree explored across executions. It is not safe
// for concurrent use; the checker's lock-step scheduling guarantees
// single-threaded access.
type Tree struct {
	nodes   []node
	depth   int // replay cursor within the current execution
	created [numKinds]int
	execs   int
	done    bool
	// fixed is the length of the immutable prefix: nodes[:fixed] never
	// advance or pop. A subtree work unit (Split) owns only the
	// executions beneath its prefix; the root tree has fixed == 0.
	fixed int
	// recorded is the number of preloaded nodes whose creation was
	// already accounted for elsewhere (a replayed path's recording run, a
	// Split victim). Only decisions at depth >= recorded count as fresh.
	recorded int
	// lenient replays tolerate divergence from the recorded prefix: the
	// stale suffix is truncated and exploration continues with default
	// branches. Used by path minimization, which perturbs recorded paths.
	lenient bool
}

// Divergence is panicked by Choose when a replayed execution requests a
// decision that disagrees with the recorded node — the checker lost
// determinism, which is an internal invariant violation.
type Divergence struct {
	Depth         int
	Recorded, Got string
}

func (d Divergence) Error() string {
	return fmt.Sprintf("decision: replay diverged at depth %d: recorded %s, got %s",
		d.Depth, d.Recorded, d.Got)
}

// NewTree returns an empty tree positioned before the first execution.
func NewTree() *Tree { return &Tree{} }

// Begin starts an execution: the replay cursor returns to the root.
func (t *Tree) Begin() {
	if t.done {
		panic("decision: Begin after exhaustion")
	}
	t.depth = 0
	t.execs++
}

// Choose resolves a decision point with n branches of the given kind,
// returning the branch to take on the current path. Within the replayed
// prefix it returns the recorded branch (validating kind and arity);
// beyond it, it records a fresh node and returns branch 0.
func (t *Tree) Choose(kind Kind, n int) int {
	if n < 1 {
		panic("decision: Choose with no branches")
	}
	if t.depth < len(t.nodes) {
		nd := &t.nodes[t.depth]
		if nd.kind == kind && nd.n == n {
			t.depth++
			return nd.chosen
		}
		if !t.lenient {
			// A divergent replay means the checker is not deterministic —
			// a checker bug worth failing loudly on.
			panic(Divergence{
				Depth:    t.depth,
				Recorded: fmt.Sprintf("%v/%d", nd.kind, nd.n),
				Got:      fmt.Sprintf("%v/%d", kind, n),
			})
		}
		// Lenient replay: the perturbed prefix invalidated the recorded
		// suffix; drop it and continue with default branches.
		t.nodes = t.nodes[:t.depth]
	}
	t.nodes = append(t.nodes, node{kind: kind, n: n})
	// Nodes that merely replace part of a recorded prefix (possible only
	// under lenient replay, where a perturbed path truncated the stale
	// suffix above) were already counted by the recording run; only
	// genuinely fresh decision points count.
	if t.depth >= t.recorded {
		t.created[kind]++
	}
	t.depth++
	return 0
}

// Advance backtracks after a completed execution: nodes below the deepest
// unexhausted decision are discarded and that decision moves to its next
// branch. It returns false when the whole tree has been explored.
func (t *Tree) Advance() bool {
	if t.done {
		return false
	}
	// An execution cut short inside the fixed prefix cannot be
	// backtracked within this unit; give the subtree up rather than
	// corrupt its prefix.
	if t.depth < t.fixed {
		t.done = true
		return false
	}
	// Anything deeper than the replay cursor belongs to an abandoned
	// subtree (possible when an execution was cut short by a bug) — but
	// nodes past the cursor can only exist if the previous execution was
	// shorter than its predecessor's recorded path, which Advance already
	// trimmed. Trim defensively anyway.
	t.nodes = t.nodes[:t.depth]
	for len(t.nodes) > t.fixed {
		last := &t.nodes[len(t.nodes)-1]
		if last.chosen+1 < last.n {
			last.chosen++
			return true
		}
		t.nodes = t.nodes[:len(t.nodes)-1]
	}
	t.done = true
	return false
}

// PendingDepth returns the depth of the deepest surviving decision
// point — after Advance returned true, the node whose next branch the
// coming execution will explore. Every decision shallower than this
// replays identically to the previous execution, so [0, PendingDepth())
// is the prefix the two executions share. Returns -1 on an empty tree.
func (t *Tree) PendingDepth() int { return len(t.nodes) - 1 }

// Executions returns the number of executions begun.
func (t *Tree) Executions() int { return t.execs }

// Created returns how many decision points of the given kind have been
// created over the whole exploration. Replayed and preloaded nodes do not
// count, so a Choose that moved it recorded a fresh point.
func (t *Tree) Created(kind Kind) int { return t.created[kind] }

// Depth returns the replay cursor's current depth (decision points hit so
// far in the current execution).
func (t *Tree) Depth() int { return t.depth }

// Done reports whether the tree is fully explored.
func (t *Tree) Done() bool { return t.done }

// Split donates unexplored branches to new work units. It scans for the
// shallowest advanceable decision point outside the fixed prefix and
// carves every branch it has not yet begun into its own subtree unit;
// that node then joins this tree's fixed prefix, so the donated subtrees
// are never visited here again. Splitting at the shallowest point hands
// off the largest subtrees, which keeps a skewed DFS balanced. It
// returns nil when nothing is splittable (every pending branch sits on
// the current path's deepest node, or the tree is done).
//
// Split must only be called between executions (after Advance returned
// true and before the next Begin), when nodes[:len(nodes)] is exactly
// the next execution's replay prefix.
func (t *Tree) Split() []*Tree {
	if t.done {
		return nil
	}
	for d := t.fixed; d < len(t.nodes); d++ {
		nd := t.nodes[d]
		if nd.chosen+1 >= nd.n {
			continue
		}
		// Build each branch's node prefix directly from this tree's nodes,
		// carving all branches out of one shared slab: no intermediate
		// []Step copies, two allocations total plus one Tree per branch
		// (work donation happens at every steal, so this is the engine's
		// per-steal allocation cost).
		branches := int(nd.n - nd.chosen - 1)
		slab := make([]node, (d+1)*branches)
		units := make([]*Tree, 0, branches)
		for b := nd.chosen + 1; b < nd.n; b++ {
			ns := slab[: d+1 : d+1]
			slab = slab[d+1:]
			copy(ns, t.nodes[:d+1])
			ns[d].chosen = b
			units = append(units, &Tree{nodes: ns, fixed: d + 1, recorded: d + 1})
		}
		t.fixed = d + 1
		return units
	}
	return nil
}
