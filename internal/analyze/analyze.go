// Package analyze implements "cxlvet", the static analysis pre-pass of
// the checker: one instrumented deterministic dry run of the program
// captures its op-stream skeleton (loads, stores, flushes, fences,
// locked RMWs, mutex operations and failure-injection sites), and three
// analyses lint that skeleton without exploring any interleavings:
//
//   - lock-order: a static lock-order graph over the checker-level
//     mutexes; a cycle means two threads acquire the same mutexes in
//     conflicting orders, a potential deadlock no single dry run would
//     hit.
//   - unflushed-publish: a store to a shared CXL cache line that is
//     published — made reachable through a store to another shared line
//     or a mutex release — with no flush+fence in between. A crash
//     after the publish can expose the stale line.
//   - dead-failure-point: failure-injection sites the state-space
//     reduction proves observer-free and always prunes; a crash there
//     is untestable, which usually means a recovery path has no
//     coverage.
//
// The analyses are structural approximations, deliberately so: the op
// stream is one deterministic schedule (decision branch 0 everywhere,
// so no failures are injected), fences are treated as committing the
// machine's issued flushes in program order, and per-machine streams
// merge their threads in observed order. The dynamic happens-before
// detector (internal/core, Config.RaceDetect) is the precise
// counterpart; cxlvet's never-flushed unflushed-publish lines feed it
// through Config.UnflushedLines so exploration can confirm which
// flagged lines a crash actually exposes (lines the machine flushes
// late but does flush stay lint-only warnings).
package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/memmodel"
)

// FindingKind labels one class of cxlvet finding.
type FindingKind uint8

const (
	// LockOrderCycle is a cycle in the static lock-order graph.
	LockOrderCycle FindingKind = iota
	// UnflushedPublish is a shared line published without flush+fence.
	UnflushedPublish
	// DeadFailurePoint is a failure-injection site the reduction always
	// prunes as observer-free.
	DeadFailurePoint
)

func (k FindingKind) String() string {
	switch k {
	case LockOrderCycle:
		return "lock-order-cycle"
	case UnflushedPublish:
		return "unflushed-publish"
	case DeadFailurePoint:
		return "dead-failure-point"
	}
	return "unknown"
}

// Finding is one cxlvet diagnostic.
type Finding struct {
	Kind    FindingKind
	Message string
	// Line is the affected cache line for unflushed-publish and
	// dead-failure-point findings (0 otherwise).
	Line uint64
	// NeverFlushed is set on unflushed-publish findings whose dirtying
	// machine never issues a flush for the line anywhere in the dry run
	// — the "forgot the flush entirely" class, as opposed to a batched
	// write-then-flush-later pattern that merely orders the flush after
	// a publish. Only never-flushed lines are armed for the dynamic
	// exposure check (see FlaggedLines).
	NeverFlushed bool
}

// Report is the result of one Vet pass.
type Report struct {
	// Findings is stably ordered: by kind, then message.
	Findings []Finding
	// Events is the length of the observed op stream (diagnostic).
	Events int
}

// FlaggedLines returns the sorted, deduplicated cache lines of the
// report's never-flushed unflushed-publish findings — the lines worth
// handing to Config.UnflushedLines so the dynamic detector checks
// whether a crash actually exposes them. Findings on lines the machine
// does flush later (batched-initialization patterns, where the publish
// merely precedes the flush) stay lint-only: arming them would report
// every tolerated crash window in a correct commit-store protocol as a
// bug.
func (r *Report) FlaggedLines() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, f := range r.Findings {
		if f.Kind == UnflushedPublish && f.NeverFlushed && !seen[f.Line] {
			seen[f.Line] = true
			out = append(out, f.Line)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteText renders the report in its stable machine-readable form: one
// "cxlvet: <kind>: <message>" line per finding, in report order, then a
// summary line. The format is covered by a golden test; keep it stable.
func (r *Report) WriteText(w io.Writer) {
	for _, f := range r.Findings {
		fmt.Fprintf(w, "cxlvet: %s: %s\n", f.Kind, f.Message)
	}
	fmt.Fprintf(w, "cxlvet: %d finding(s)\n", len(r.Findings))
}

// recorder collects the dry run's issue-time events — all the analyses read —
// and passes the whole stream on to the caller's observer, if any.
type recorder struct {
	events []core.OpEvent
	next   core.OpObserver
}

func (r *recorder) Op(ev core.OpEvent) {
	if !ev.Kind.Effect() {
		r.events = append(r.events, ev)
	}
	if r.next != nil {
		r.next.Op(ev)
	}
}

// Vet runs the cxlvet static pre-pass: one instrumented dry run of
// program under cfg's exploration-relevant knobs (seed, GPF, Poison,
// memory size, ...), then the three analyses over the recorded op
// stream. The dry run takes decision branch 0 everywhere, so no
// failures are injected and the stream is the program's failure-free
// skeleton. cfg is taken by value: its observer, if any, is handed the dry
// run's stream too, and the worker-pool and persistence knobs it carries are
// overridden for the dry run.
func Vet(cfg core.Config, program func(*core.Program)) (*Report, error) {
	rec := &recorder{next: cfg.Observer}
	cfg.Observer = rec
	cfg.Workers = 1
	cfg.MaxExecutions = 1
	cfg.MaxTime = 0
	// One execution, no exploration: the detector and all
	// persistence/observability plumbing are exploration concerns.
	cfg.RaceDetect = core.SwitchOff
	cfg.UnflushedLines = nil
	cfg.ContinueAfterBug = true
	cfg.CheckpointPath = ""
	cfg.MetricsAddr = ""
	cfg.EventTrace = nil
	cfg.Stop = nil
	if _, err := core.Run(cfg, program); err != nil {
		return nil, fmt.Errorf("cxlvet: dry run failed: %w", err)
	}
	rep := &Report{Events: len(rec.events)}
	rep.Findings = append(rep.Findings, lockOrderFindings(rec.events)...)
	rep.Findings = append(rep.Findings, unflushedPublishFindings(rec.events)...)
	rep.Findings = append(rep.Findings, deadFailurePointFindings(rec.events)...)
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].Kind != rep.Findings[j].Kind {
			return rep.Findings[i].Kind < rep.Findings[j].Kind
		}
		return rep.Findings[i].Message < rep.Findings[j].Message
	})
	return rep, nil
}

// lockEdge is one observed acquisition order: "some thread acquired
// from while holding to"... inverted: from was held when to was taken.
type lockEdge struct {
	from, to int
}

type edgeInfo struct {
	step    int
	machine string
	thread  string
}

// lockOrderFindings builds the static lock-order graph — an edge A→B
// for every acquisition of B while A is held, attributed to its first
// witness — and reports every strongly connected component with a
// cycle as one potential-deadlock finding.
func lockOrderFindings(events []core.OpEvent) []Finding {
	held := map[int][]int{} // thread index -> held mutex indexes, in order
	names := map[int]string{}
	edges := map[lockEdge]edgeInfo{}
	for _, ev := range events {
		switch ev.Kind {
		case core.OpMutexLock:
			names[ev.Mutex] = ev.MutexName
			for _, h := range held[ev.Thread] {
				e := lockEdge{from: h, to: ev.Mutex}
				if _, ok := edges[e]; !ok && h != ev.Mutex {
					edges[e] = edgeInfo{step: ev.Step, machine: ev.MachineName, thread: ev.ThreadName}
				}
			}
			held[ev.Thread] = append(held[ev.Thread], ev.Mutex)
		case core.OpMutexUnlock:
			hs := held[ev.Thread]
			for i := len(hs) - 1; i >= 0; i-- {
				if hs[i] == ev.Mutex {
					held[ev.Thread] = append(hs[:i], hs[i+1:]...)
					break
				}
			}
		}
	}
	comps := sccs(edges)
	var out []Finding
	for _, comp := range comps {
		if len(comp) < 2 {
			continue
		}
		inComp := map[int]bool{}
		for _, n := range comp {
			inComp[n] = true
		}
		var ns []string
		for _, n := range comp {
			ns = append(ns, names[n])
		}
		sort.Strings(ns)
		// List the component's edges as evidence, stably ordered.
		var ev []string
		for e, info := range edges {
			if inComp[e.from] && inComp[e.to] {
				ev = append(ev, fmt.Sprintf("%s before %s (%s/%s, step %d)",
					names[e.from], names[e.to], info.machine, info.thread, info.step))
			}
		}
		sort.Strings(ev)
		out = append(out, Finding{
			Kind: LockOrderCycle,
			Message: fmt.Sprintf("potential deadlock: mutexes %s are acquired in conflicting orders: %s",
				strings.Join(ns, ", "), strings.Join(ev, "; ")),
		})
	}
	return out
}

// sccs runs Tarjan's algorithm over the lock-order graph and returns
// the strongly connected components, each sorted, in a deterministic
// order (by smallest member).
func sccs(edges map[lockEdge]edgeInfo) [][]int {
	adj := map[int][]int{}
	nodeSet := map[int]bool{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodeSet[e.from], nodeSet[e.to] = true, true
	}
	var nodes []int
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for n := range adj {
		sort.Ints(adj[n])
	}
	index := map[int]int{}
	low := map[int]int{}
	onStack := map[int]bool{}
	var stack []int
	next := 0
	var comps [][]int
	var strong func(v int)
	strong = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Ints(comp)
			comps = append(comps, comp)
		}
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// lineState tracks one (machine, line) persistency state in the lint's
// fence-commits-issued-flushes abstraction.
type lineState struct {
	// state: 0 clean (persisted or never written), 1 dirty (stored, no
	// flush issued since), 2 flushed (flush issued, no fence since).
	state     uint8
	dirtyStep int
	dirtyBy   string
}

// unflushedPublishFindings lints for stores to shared lines that are
// published — via a store to another shared line or a mutex release by
// the same machine — before a flush+fence made them durable. Shared
// means accessed by more than one machine in the dry run; restricting
// both the dirty line and the publish target to shared lines keeps
// machine-private scratch writes out of the report.
func unflushedPublishFindings(events []core.OpEvent) []Finding {
	// Pass 1: which lines does more than one machine touch?
	touchedBy := map[memmodel.LineID]map[core.MachineID]bool{}
	touch := func(m core.MachineID, a core.Addr, size uint8) {
		if size == 0 {
			size = 1
		}
		for ln := memmodel.LineOf(a); ln <= memmodel.LineOf(a+core.Addr(size)-1); ln++ {
			if touchedBy[ln] == nil {
				touchedBy[ln] = map[core.MachineID]bool{}
			}
			touchedBy[ln][m] = true
		}
	}
	// everFlushed: (machine, line) pairs that issue at least one flush
	// anywhere in the dry run — used to split findings into the
	// never-flushed class (armed for the dynamic exposure check) and the
	// flushed-too-late class (lint-only).
	type flushKey struct {
		m  core.MachineID
		ln memmodel.LineID
	}
	everFlushed := map[flushKey]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case core.OpLoad, core.OpStore, core.OpRMW:
			touch(ev.Machine, ev.Addr, ev.Size)
		case core.OpFlush:
			everFlushed[flushKey{ev.Machine, ev.Line}] = true
		}
	}
	shared := func(ln memmodel.LineID) bool { return len(touchedBy[ln]) > 1 }

	// Pass 2: per-machine persistency state machine over the op stream.
	type key struct {
		m  core.MachineID
		ln memmodel.LineID
	}
	states := map[key]*lineState{}
	reported := map[key]bool{}
	var out []Finding
	at := func(m core.MachineID, ln memmodel.LineID) *lineState {
		k := key{m, ln}
		st := states[k]
		if st == nil {
			st = &lineState{}
			states[k] = st
		}
		return st
	}
	fence := func(m core.MachineID) {
		for k, st := range states {
			if k.m == m && st.state == 2 {
				st.state = 0
			}
		}
	}
	// publish reports every shared line of machine m that is still not
	// durably flushed when m publishes (except the publish target).
	publish := func(m core.MachineID, exclude memmodel.LineID, haveExclude bool, how string, step int) {
		var hits []key
		for k, st := range states {
			if k.m != m || st.state == 0 || reported[k] || !shared(k.ln) {
				continue
			}
			if haveExclude && k.ln == exclude {
				continue
			}
			hits = append(hits, k)
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i].ln < hits[j].ln })
		for _, k := range hits {
			st := states[k]
			reported[k] = true
			out = append(out, Finding{
				Kind:         UnflushedPublish,
				Line:         uint64(k.ln),
				NeverFlushed: !everFlushed[flushKey{k.m, k.ln}],
				Message: fmt.Sprintf("shared line %d (stored at step %d by %s) has no flush+fence when %s at step %d",
					k.ln, st.dirtyStep, st.dirtyBy, how, step),
			})
		}
	}
	dirty := func(ev core.OpEvent) {
		size := ev.Size
		if size == 0 {
			size = 1
		}
		for ln := memmodel.LineOf(ev.Addr); ln <= memmodel.LineOf(ev.Addr+core.Addr(size)-1); ln++ {
			st := at(ev.Machine, ln)
			st.state = 1
			st.dirtyStep = ev.Step
			st.dirtyBy = ev.MachineName + "/" + ev.ThreadName
		}
	}
	for _, ev := range events {
		switch ev.Kind {
		case core.OpStore:
			if shared(memmodel.LineOf(ev.Addr)) {
				publish(ev.Machine, memmodel.LineOf(ev.Addr), true,
					fmt.Sprintf("%s/%s stores to shared line %d", ev.MachineName, ev.ThreadName, memmodel.LineOf(ev.Addr)), ev.Step)
			}
			dirty(ev)
		case core.OpRMW:
			// Locked RMW has full fence semantics: issued flushes commit,
			// then the RMW's own store dirties its line. Its store also
			// publishes, like any store to a shared line.
			fence(ev.Machine)
			if shared(memmodel.LineOf(ev.Addr)) {
				publish(ev.Machine, memmodel.LineOf(ev.Addr), true,
					fmt.Sprintf("%s/%s RMWs shared line %d", ev.MachineName, ev.ThreadName, memmodel.LineOf(ev.Addr)), ev.Step)
			}
			dirty(ev)
		case core.OpFlush:
			st := at(ev.Machine, ev.Line)
			if st.state == 1 {
				st.state = 2
			}
		case core.OpSFence, core.OpMFence:
			fence(ev.Machine)
		case core.OpMutexUnlock:
			// The release drain (an mfence) was observed just before this
			// event, so only never-flushed lines can still be dirty here.
			publish(ev.Machine, 0, false,
				fmt.Sprintf("%s/%s releases mutex %q", ev.MachineName, ev.ThreadName, ev.MutexName), ev.Step)
		}
	}
	return out
}

// deadFailurePointFindings dedups the reduction's observer-free prune
// sites by (machine, line) and reports each with its occurrence count.
func deadFailurePointFindings(events []core.OpEvent) []Finding {
	type key struct {
		machine string
		line    memmodel.LineID
	}
	counts := map[key]int{}
	first := map[key]int{}
	for _, ev := range events {
		if ev.Kind != core.OpDeadFailurePoint {
			continue
		}
		k := key{ev.MachineName, ev.Line}
		counts[k]++
		if counts[k] == 1 {
			first[k] = ev.Step
		}
	}
	var keys []key
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].machine != keys[j].machine {
			return keys[i].machine < keys[j].machine
		}
		return keys[i].line < keys[j].line
	})
	var out []Finding
	for _, k := range keys {
		out = append(out, Finding{
			Kind: DeadFailurePoint,
			Line: uint64(k.line),
			Message: fmt.Sprintf("crash at flush of line %d by %s is never observable (%d site(s) pruned, first at step %d)",
				k.line, k.machine, counts[k], first[k]),
		})
	}
	return out
}
