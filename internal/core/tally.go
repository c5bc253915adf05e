package core

import (
	"sort"

	"repro/internal/decision"
)

// Tally is what an exploration has found so far: the additive Counters and
// the distinct bugs. Every holder of results keeps one — a worker's
// checker, the engine, a MemFrontier — and results only ever move by
// folding one tally (or a delta off one) into another, so "distinct" has
// one definition: bugs are deduplicated by (kind, message), here.
//
// The zero value is ready to use, and so is a Tally assembled from its
// exported fields (a decoded checkpoint, a copy handed out by a frontier):
// the dedup index is rebuilt from Bugs on first use.
type Tally struct {
	Counters
	Bugs []Bug
	seen map[string]bool
}

// bugKey is the identity bugs are deduplicated by.
func bugKey(kind BugKind, msg string) string { return kind.String() + ":" + msg }

// note records the bug identity (kind, msg) and reports whether it is new
// to the tally. A caller that gets true appends the Bug itself; asking
// first lets a checker skip building a duplicate's report and token.
func (t *Tally) note(kind BugKind, msg string) bool {
	if t.seen == nil {
		t.seen = make(map[string]bool, len(t.Bugs))
		for _, b := range t.Bugs {
			t.seen[bugKey(b.Kind, b.Message)] = true
		}
	}
	key := bugKey(kind, msg)
	if t.seen[key] {
		return false
	}
	t.seen[key] = true
	return true
}

// Merge appends the bugs the tally has not seen, in order, and returns how
// many were new. The first report of a bug wins; later duplicates (another
// worker's, a re-executed lease's) are dropped.
func (t *Tally) Merge(bugs []Bug) (added int) {
	for _, b := range bugs {
		if t.note(b.Kind, b.Message) {
			t.Bugs = append(t.Bugs, b)
			added++
		}
	}
	return added
}

// Fold merges another tally's counters and bugs into t.
func (t *Tally) Fold(o Tally) {
	t.Add(o.Counters)
	t.Merge(o.Bugs)
}

// mark is a consumer's watermark into a Tally it drains incrementally: the
// engine keeps one per worker checker (what it has merged).
type mark struct {
	Counters
	bugs int
}

// since returns what t accumulated after m — the counter deltas and the
// bugs appended since — and advances m to now. The bug slice aliases t.
func (t *Tally) since(m *mark) (Counters, []Bug) {
	d, fresh := t.Counters.Sub(m.Counters), t.Bugs[m.bugs:]
	m.Counters, m.bugs = t.Counters, len(t.Bugs)
	return d, fresh
}

// SortBugs orders bugs by (kind, message). Discovery order depends on
// which worker got where first; every result assembled from more than one
// worker is reported in this order instead.
func SortBugs(bugs []Bug) {
	sort.SliceStable(bugs, func(i, j int) bool {
		if bugs[i].Kind != bugs[j].Kind {
			return bugs[i].Kind < bugs[j].Kind
		}
		return bugs[i].Message < bugs[j].Message
	})
}

// TreeCounters reads the decision points a subtree unit has created so far
// — the only counters a unit carries inside its snapshot — as Counters, so
// they add and subtract like everything else.
func TreeCounters(tr *decision.Tree) Counters {
	return Counters{
		FailurePoints:  tr.Created(decision.KindFailure),
		ReadFromPoints: tr.Created(decision.KindReadFrom),
		PoisonPoints:   tr.Created(decision.KindPoison),
	}
}
