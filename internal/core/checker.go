package core

import (
	"encoding/base64"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"time"

	"repro/internal/decision"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Checker holds the exploration state across executions (decision tree,
// the tally of counters and distinct bugs) and the per-execution simulation
// state (memory, scheduler, machines, threads). Checkers come from a
// process-wide pool (newChecker) and go back to it (release) keeping only
// their scratch, the memory the next Run reuses.
type Checker struct {
	program func(*Program)
	tree    *decision.Tree
	// stats is everything this checker has counted and found; the engine
	// drains it incrementally at execution boundaries. The tree counts the
	// decision points; whoever retires the tree adds them (treeCounters).
	// execNo is the current execution's 1-based ordinal in the whole run,
	// the engine's to assign.
	stats  Tally
	execNo int
	// cfgDigest and progDigest identify what is being explored; they are
	// stamped into checkpoints and repro tokens and validated on
	// resume/replay. fp is only non-nil while programDigestOf records.
	cfgDigest  string
	progDigest string
	fp         *fingerprint
	// deadline is the wall-clock cutoff derived from Config.MaxTime
	// (zero when unlimited); timedOut is set when it fires mid-execution.
	deadline time.Time
	timedOut bool
	// internalErr holds a converted checker-invariant panic; the run
	// returns it instead of crashing the caller's process.
	internalErr *InternalError
	// Observability: om's instruments and tracer are nil-safe, so an
	// uninstrumented checker (replay, digest scratch, obs off) leaves
	// them zero and pays one nil check per execution boundary. workerID
	// labels this checker's trace events (-1 would be the engine).
	om       coreMetrics
	tracer   *obs.Tracer
	workerID int
	// replaying marks a strict token replay, where a decision divergence
	// means a stale token (program behaviour changed), not a checker bug;
	// replayDiverged records it.
	replaying      bool
	replayDiverged *decision.Divergence

	// scratch is the memory reused across executions and across Runs.
	scratch

	// Per-execution state, reset in place by resetExecution. nRun and
	// nPend count the bits set in runBits and pendBits, the scheduler's
	// books (see touch).
	nRun     int32
	nPend    int32
	failed   memmodel.FailSet
	heapNext Addr
	current  *Thread // thread running its own code, nil while scheduler steps run
	aborted  bool    // current execution ended early (bug)
	// Scratch state reused by the load path.
	readCtx  memmodel.ReadContext
	readIter memmodel.CandidateIter

	// stepNo is the current execution's scheduler step counter (1-based
	// inside the loop); shared by the livelock check, the prefix-fork
	// step map and the reduction headroom proof.
	stepNo int

	// State-space reduction (Config.Reduction). reduce caches the
	// resolved switch; the fbChain flags hold the flush-chain subsumption
	// window while drainFB runs (see pruneFailurePoint).
	reduce         bool
	fbChain        bool
	fbChainDecided bool

	// inRMW suppresses the plain-load race check and load observation
	// while rmw's internal load runs (the RMW itself is reported as one
	// synchronization op); observing caches Observer != nil.
	inRMW     bool
	observing bool

	// Prefix-fork fast replay (Config.PrefixFork). While forkEnabled,
	// every execution records its steps (stepLog), resolved read-from
	// candidates (loadLog) and the scheduler step of each decision depth
	// (pathStep). After a backtrack, armFork translates the pending
	// decision's depth into the step the next execution first diverges
	// at (forkStep); the next execution adopts it as fastUntil and replays
	// everything before it from the logs — skipping the thread/buffer
	// scans and the per-load candidate search — and switches to live
	// execution there. forkOK marks the logs as describing the previous
	// execution completely; a new checker, unit adoption, dirty resets and
	// strict replay clear it.
	forkEnabled bool
	forkOK      bool
	forkStep    int
	fast        bool
	fastUntil   int
	loadPos     int

	// cfg sits last: it is large and read-mostly, and the per-step fields
	// above should not all move when Config gains or loses a field (a
	// 16-byte shift of them has measured as 2 % of a table5 round).
	cfg Config
}

// scratch is what a Checker keeps when it goes back to the pool: storage
// whose contents every execution rebuilds in place, so a checker taken from
// the pool starts its first execution as warm as its previous owner's last.
// Nothing in it carries meaning from one execution to the next except the
// schedule stream's memoised draws, which the stream keeps only for the
// seed that drew them.
type scratch struct {
	// The memory, the scheduler (its thread structs; never its carriers,
	// which end at release), and the machine, thread and mutex arenas:
	// resetExecution truncates the slices, and the structs past their
	// length are reused, with their ThreadBufs, by the next set-up.
	mem      *memmodel.Memory
	sch      *sched.Scheduler
	machines []*Machine
	threads  []*Thread
	mutexes  []*Mutex
	// prog is the Program handle set-up is passed each execution; what a
	// front-end keeps on it (Program.Local) travels with the scratch.
	prog Program
	// The scheduler's books, one word per 64 bits whatever the thread
	// count: bit i of runBits is set while thread i is Runnable on a live
	// machine, bits 2i and 2i+1 of pendBits while its store buffer and its
	// flush buffer are non-empty on a live machine. touch keeps them; a
	// step reads them instead of walking the threads.
	runBits  []uint64
	pendBits []uint64
	// blockedBuf is the deadlock report's buffer.
	blockedBuf []*Thread
	// race is the happens-before detector (Config.RaceDetect): its slab,
	// word table, clocks and epoch slices.
	race raceDetector
	// The prefix-fork logs (see Checker.forkEnabled).
	stepLog  []stepRec
	loadLog  []loadRec
	pathStep []int
	// spare is the decision tree whose node storage the digest pass, a
	// replay or a fresh exploration's root unit starts from (spareTree).
	spare *decision.Tree
	// stream is the seeded schedule, memoised and rewound per execution
	// rather than re-seeded.
	stream scheduleStream
}

// checkers pools Checkers between Runs for their scratch. It holds memory
// and no goroutine: a checker's carriers end at release, before it is put
// back. What it retains is at most one scratch per checker that was live at
// once — each the size of the largest execution it ran — and sync.Pool
// gives idle ones to the collector within two GC cycles.
var checkers sync.Pool

// coldCheckers makes every checker new and keeps none: the fresh state the
// tests hold warm runs to (export_test.go).
var coldCheckers bool

// newChecker returns a Checker for cfg and program from the pool — its
// scratch warm from an earlier Run — or a new one. Everything but the
// scratch starts from zero.
func newChecker(cfg Config, program func(*Program)) *Checker {
	var ck *Checker
	if !coldCheckers {
		ck, _ = checkers.Get().(*Checker)
	}
	if ck == nil {
		ck = &Checker{}
	}
	ck.cfg, ck.program = cfg, program
	return ck
}

// release ends the checker's scheduler — and with it the carrier
// coroutines its threads left parked — and gives the checker back to the
// pool with nothing but its scratch. The checker must not be used again.
func (ck *Checker) release() {
	if ck.sch != nil {
		ck.sch.Close()
	}
	// The thread structs keep nothing of the program's.
	for _, t := range ck.threads[:cap(ck.threads)] {
		if t != nil {
			t.fn = nil
		}
	}
	*ck = Checker{scratch: ck.scratch}
	if !coldCheckers {
		checkers.Put(ck)
	}
}

// spareTree returns the scratch's decision tree reset to a replay of steps
// (the empty tree for none): the first tree a checker explores reuses the
// node storage an earlier one grew.
func (ck *Checker) spareTree(steps []decision.Step, lenient bool) *decision.Tree {
	if ck.spare == nil {
		ck.spare = decision.NewTree()
	}
	ck.spare.Reset(steps, lenient)
	return ck.spare
}

// streamCap bounds the draws a scheduleStream memoises: 512 KB, about 32 k
// steps of one execution. A longer execution draws past it live.
// streamInit sizes the buffer for a Table 5 execution (~390 steps, at most
// ~1 900 draws), so memoising one costs a single allocation.
const (
	streamCap  = 1 << 16
	streamInit = 1 << 11
)

// scheduleStream is the seeded schedule. Every execution's schedule starts
// from the same seed (§3.2), so every execution draws the same raw
// sequence: the stream keeps what its source produced, buf[i] being the
// i-th Int63 of a source freshly seeded with seed, and an execution reads
// buf from the start, then draws live and appends. Both are lazy: src is
// seeded at the first live draw (seeded), so a checker that draws nothing
// (the program digest's) seeds nothing, and a stream's first execution
// appends nothing (buf is nil until the first rewind), so one that runs a
// single execution — a replay, the vet dry run — pays for no buffer. The
// stream outlives its checker in the scratch: the source is kept whatever
// the next seed, the memoised draws only for the same seed (restart).
type scheduleStream struct {
	src    rand.Source
	seed   int64
	seeded bool
	buf    []int64
	pos    int
}

// int63 returns the stream's next value.
func (s *scheduleStream) int63() int64 {
	if s.pos < len(s.buf) {
		s.pos++
		return s.buf[s.pos-1]
	}
	return s.live()
}

// live draws the next value from the source, memoising it while the
// buffer has room.
func (s *scheduleStream) live() int64 {
	if !s.seeded {
		if s.src == nil {
			s.src = rand.NewSource(s.seed)
		} else {
			s.src.Seed(s.seed)
		}
		s.seeded = true
	}
	v := s.src.Int63()
	if s.buf != nil && s.pos < streamCap {
		s.buf = append(s.buf, v)
	}
	s.pos++
	return v
}

// intn is math/rand's (*Rand).Intn(n) over the stream, draw for draw, for
// 0 < n < 1<<31: a power of two masks the top 31 bits of one value (so
// n == 1 takes one and returns 0); any other n rejects the values at or
// above the largest multiple of n below 1<<31 and reduces the first one
// left (reduce).
func (s *scheduleStream) intn(n int) int {
	m := int32(n)
	if m&(m-1) == 0 {
		return int(int32(s.int63()>>32) & (m - 1))
	}
	for {
		if r, ok := reduce(int32(s.int63()>>32), m); ok {
			return int(r)
		}
	}
}

// reduce returns v % m, and whether v lies below the largest multiple of m
// below 1<<31 — exactly when the block of m that v - v%m starts fits whole,
// which takes one division where Int31n's bound takes another.
func reduce(v, m int32) (int32, bool) {
	r := v % m
	return r, v-r <= 1<<31-1-(m-1)
}

// restart starts the next execution's stream under seed. Where the last
// execution drew past buf — a stream's first, or one past the cap — src is
// ahead of buf, so it is re-seeded at the next live draw and buf refilled;
// where the seed is not the one buf was drawn under, buf starts over too.
func (s *scheduleStream) restart(seed int64) {
	if seed != s.seed {
		s.seed, s.seeded, s.buf = seed, false, s.buf[:0]
	}
	if s.pos > len(s.buf) {
		s.seeded = false
		if s.buf == nil {
			s.buf = make([]int64, 0, streamInit)
		} else {
			s.buf = s.buf[:0]
		}
	}
	s.pos = 0
}

// stepRec is one recorded scheduler step: what the step did and the RNG
// draws that selected it, so the fast path can validate that its RNG
// stream stays aligned with the recording execution's.
type stepRec struct {
	op     uint8 // opGrant, opCommitSB, opCommitFB
	chance bool  // a commit-chance draw preceded the selection
	pickN  int32 // size of the candidate list the selection drew from
	pick   int32 // result of that Intn draw
	thread int32 // index into ck.threads
}

// Recorded step operations.
const (
	opGrant uint8 = iota
	opCommitSB
	opCommitFB
)

// loadRec is one recorded run of a load's bytes that did not come from the
// store buffer. A settled run (memmodel.SettledRun) is n bytes worth val
// from one possible source, σ c.Seq, and touched nothing, so the fast path
// takes val and n as they stand. Otherwise the record is a byte step: n is
// 1, c is the candidate the lazy search resolved and chain counts the
// read-from decision points the search consumed. The fast path skips the
// search, fast-forwards the decision cursor past the chain, and re-applies
// the constraint refinement live — ApplyReadConstraint is deterministic
// given the candidate, so no memory-model state needs snapshotting.
type loadRec struct {
	c       memmodel.Candidate
	val     uint64
	chain   int32
	n       uint8
	settled bool
}

// Run explores the program under cfg and returns the aggregated result.
// program is invoked once per execution to (re)build machines, threads
// and initial memory.
//
// With Config.Workers > 1, independent subtrees of the decision tree are
// explored concurrently by work-stealing workers, each owning a private
// Checker; see engine in parallel.go. Serial runs go through the same
// engine with a single worker, so there is exactly one exploration loop.
//
// With Config.CheckpointPath set, Run resumes transparently from an
// existing checkpoint and periodically (and on every stop) writes new
// ones, so an interrupted exploration — graceful via Config.Stop or a
// hard kill — loses at most one checkpoint interval of progress and,
// when resumed, explores exactly the executions an uninterrupted run
// would have.
func Run(cfg Config, program func(*Program)) (*Result, error) {
	_, res, err := explore(cfg, program, false, nil)
	return res, err
}

// explore is Run and Continue: one engine, resuming CheckpointPath or, in
// memory, from.
func explore(cfg Config, program func(*Program), inMemory bool, from *Checkpoint) (*Checkpoint, *Result, error) {
	if program == nil {
		return nil, nil, setupError{"nil program"}
	}
	cfg.fillDefaults()
	progDigest, err := programDigestOf(cfg, program)
	if err != nil {
		return nil, nil, err
	}
	e := newEngine(cfg, program, progDigest)
	e.inMemory, e.from = inMemory, from
	return e.run()
}

// Continue is Run with the checkpoint held in memory instead of in a file.
// It resumes from exactly as a run with CheckpointPath resumes the file — nil
// means there is nothing to resume and the whole tree is ahead — explores
// under cfg's budgets, and returns, next to the Result, the checkpoint the run
// would have written when it stopped: the unexplored units and the totals net
// of the points those units embed. Feeding that back in continues where this
// call stopped, and it is interchangeable with the file a Run writes at the
// same cut. Repro tokens come back unminimized: a caller chaining calls (the
// dist worker makes one per lease) hands its results to an owner that
// minimizes the merged bug set once. Periodic checkpoints would have nowhere
// to go, so cfg.CheckpointPath must be empty.
func Continue(cfg Config, program func(*Program), from *Checkpoint) (*Checkpoint, *Result, error) {
	if cfg.CheckpointPath != "" {
		return nil, nil, setupError{"Continue keeps its checkpoint in memory: CheckpointPath must be empty"}
	}
	return explore(cfg, program, true, from)
}

// stopRequested polls the graceful-interruption channel.
func stopRequested(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// newInternalError packages a violated checker invariant with the
// context needed to reproduce it.
func (ck *Checker) newInternalError(msg string) *InternalError {
	return &InternalError{
		Msg:       msg,
		Seed:      ck.cfg.Seed,
		Execution: ck.execNo,
		Path:      base64.RawURLEncoding.EncodeToString(decision.EncodePath(ck.tree.Path())),
	}
}

// resetExecution rebuilds all per-execution state and re-runs program
// setup. State from the previous execution — the memory, the scheduler
// with its threads' parked carrier coroutines, the
// machine/thread/mutex arenas, the schedule stream — is reset in place
// rather than reallocated, and a checker from the pool inherits all of it
// but the carriers, so after the first Run the setup path allocates
// nothing.
func (ck *Checker) resetExecution() {
	if ck.mem == nil {
		ck.mem = memmodel.NewMemory()
	} else {
		ck.mem.Reset()
	}
	// Bound the line tables by the region before set-up touches them.
	ck.mem.Reserve(heapBase, Addr(ck.cfg.memSize))
	if ck.sch == nil {
		ck.sch = sched.New()
		ck.sch.OnPanic = ck.onThreadPanic
		ck.sch.OnExit = ck.onThreadExit
	} else {
		ck.sch.Reset()
	}
	ck.stream.restart(ck.cfg.Seed)
	clear(ck.runBits)
	clear(ck.pendBits)
	ck.nRun, ck.nPend = 0, 0
	ck.machines = ck.machines[:0]
	ck.threads = ck.threads[:0]
	ck.mutexes = ck.mutexes[:0]
	ck.failed = 0
	ck.heapNext = heapBase
	ck.current = nil
	ck.aborted = false

	defer func() {
		if v := recover(); v != nil {
			panic(setupError{v})
		}
	}()
	ck.prog.ck = ck
	ck.program(&ck.prog)
	// The bump allocator's mark is known now: size the line index for the
	// whole allocation in one step rather than by doubling under the loads.
	ck.mem.Reserve(ck.heapNext, Addr(ck.cfg.memSize))

	// Detector state sizes to the threads and mutexes setup just created.
	ck.observing = ck.cfg.Observer != nil
	ck.inRMW = false
	if ck.cfg.raceDetectOn() {
		ck.race.begin(len(ck.threads), len(ck.mutexes))
	} else {
		ck.race.on = false
	}
}

// runOneExecution executes the program once, driving threads and buffer
// commits under the seeded schedule until nothing can make progress.
// The observability calls bracketing the loop are per-execution, never
// per-step, and are nil checks when observability is off.
func (ck *Checker) runOneExecution() {
	ck.tracer.Record(ck.workerID, obs.EvExecStart, int64(ck.execNo), 0)
	ck.stats.Executions++
	stepsBefore := ck.stats.Steps
	ck.runExecutionLoop()
	ck.om.execSteps.Observe(float64(ck.stats.Steps - stepsBefore))
	ck.om.execDepth.Observe(float64(ck.tree.Depth()))
	ck.tracer.Record(ck.workerID, obs.EvExecEnd, int64(ck.execNo), ck.stats.Steps-stepsBefore)
}

func (ck *Checker) runExecutionLoop() {
	ck.resetExecution()
	defer ck.sch.Teardown()

	ck.reduce = ck.cfg.reductionOn()
	ck.forkEnabled = ck.cfg.prefixForkOn() && !ck.replaying

	// Prefix-fork: adopt the armed fast-replay boundary, if any. The
	// logs stay untouched while fast — they ARE the prefix — and are
	// truncated to the consumed prefix at the fork point; without a fork
	// they restart empty.
	ck.fastUntil = 0
	if ck.forkOK && ck.forkStep > 1 && ck.forkEnabled {
		ck.fastUntil = ck.forkStep
		if ck.fastUntil-1 > len(ck.stepLog) {
			internalPanic("prefix-fork: step log shorter than the armed fork point")
		}
		ck.fast = true
		ck.stats.PrefixForks++
	} else {
		ck.stepLog = ck.stepLog[:0]
		ck.loadLog = ck.loadLog[:0]
	}
	ck.forkStep = 0
	ck.forkOK = false
	ck.loadPos = 0
	ck.stepNo = 0
	defer func() {
		// The logs now describe this execution end-to-end (recording is
		// unconditional while forkEnabled).
		ck.fast = false
		ck.forkOK = ck.forkEnabled
	}()

	// The engine goroutine runs the scheduler steps up to the first grant
	// and hands that thread the baton. From there the thread holding the
	// baton runs the steps itself (Thread.enter, onThreadExit), and the
	// baton only comes back here when the execution is over.
	if first := ck.advance(); first != nil {
		ck.sch.Grant(first.st)
	}
}

// advance runs scheduler steps under the seeded schedule — buffer commits
// and their fast-replayed recordings inline — until a step grants a
// thread, which it returns; nil means the execution is over (a bug
// aborted it, nothing can make progress, or a limit was hit). It is
// called by whichever goroutine holds the baton, at its instruction
// boundary; ck.current is nil while it runs and the granted thread when
// it returns, and the caller passes the baton to that thread.
func (ck *Checker) advance() *Thread {
	ck.current = nil
	// timedOut also ends the loop: the run is out of time mid-execution.
	for !ck.aborted && !ck.timedOut {
		ck.stepNo++
		ck.stats.Steps++
		if ck.stepNo > ck.cfg.maxSteps {
			ck.reportBug(BugLivelock, fmt.Sprintf("step limit exceeded (%d): livelock in checked program?", ck.cfg.maxSteps), nil)
			return nil
		}
		// A per-execution decision-event budget turns state-space blowup in
		// one execution (a flush/fence storm multiplying crash branches)
		// into a structured diagnosis instead of an unbounded tree walk.
		if ck.cfg.MaxEventsPerExec > 0 && ck.tree.Depth() > ck.cfg.MaxEventsPerExec {
			ck.reportBug(BugResourceExhausted, fmt.Sprintf(
				"decision-event limit exceeded (%d): per-execution state-space blowup in checked program?", ck.cfg.MaxEventsPerExec), nil)
			return nil
		}
		// Honor MaxTime mid-execution, at step granularity; the check is
		// throttled so the hot loop does not pay a clock read per step.
		if !ck.deadline.IsZero() && ck.stepNo&1023 == 0 && time.Now().After(ck.deadline) {
			ck.timedOut = true
			return nil
		}
		if stepHook != nil {
			stepHook(ck)
		}

		if ck.fast {
			if ck.stepNo < ck.fastUntil {
				ck.stats.StepsSaved++
				if t := ck.replayStep(&ck.stepLog[ck.stepNo-1]); t != nil {
					ck.current = t
					return t
				}
				continue
			}
			// Fork point reached: drop the log suffix belonging to the
			// previous execution and record live from here on.
			ck.fast = false
			ck.stepLog = ck.stepLog[:ck.fastUntil-1]
			ck.loadLog = ck.loadLog[:ck.loadPos]
		}

		var chance, commit bool
		switch {
		case ck.nRun == 0 && ck.nPend == 0:
			if blocked := ck.liveBlockedThreads(); len(blocked) > 0 {
				names := ""
				for _, t := range blocked {
					names += fmt.Sprintf(" %s/%s(%s)", t.mach.name, t.name, t.st.BlockNote)
				}
				ck.reportBug(BugDeadlock, "deadlock: all live threads blocked:"+names, nil)
			}
			return nil
		case ck.nRun == 0:
			commit = true
		case ck.nPend == 0:
			commit = false
		default:
			chance = true
			commit = ck.stream.intn(100) < ck.cfg.commitChance
		}
		// The i-th candidate is the i-th set bit in ascending order: threads
		// in creation order, and each thread's store buffer before its flush
		// buffer.
		if !commit {
			i := ck.stream.intn(int(ck.nRun))
			t := ck.threads[nthBit(ck.runBits, i)]
			if ck.forkEnabled {
				ck.logStep(opGrant, chance, ck.nRun, i, t)
			}
			ck.current = t
			return t
		}
		i := ck.stream.intn(int(ck.nPend))
		b := nthBit(ck.pendBits, i)
		t, fb := ck.threads[b>>1], b&1 == 1
		if ck.forkEnabled {
			op := opCommitSB
			if fb {
				op = opCommitFB
			}
			ck.logStep(op, chance, ck.nPend, i, t)
		}
		ck.commitTo(t, fb)
	}
	return nil
}

// logStep records a live step for the prefix-fork fast path. The record
// is written in place, field by field: built whole and copied in, its
// field stores would be read back as one 16-byte load the CPU cannot
// forward, a stall on every step.
func (ck *Checker) logStep(op uint8, chance bool, n int32, pick int, t *Thread) {
	ck.stepLog = append(ck.stepLog, stepRec{})
	r := &ck.stepLog[len(ck.stepLog)-1]
	r.op, r.chance, r.pickN, r.pick, r.thread = op, chance, n, int32(pick), int32(t.idx)
}

// stepHook, when set, runs at the top of every scheduler step. It is nil
// outside the tests, which audit the books behind it.
var stepHook func(*Checker)

// touch re-derives thread t's bits in the scheduler's books. It is called
// wherever they can change: when the thread is created (Machine.Thread),
// at its instruction boundaries (Thread.enter, after its own instruction
// or a block) and its exit (onThreadExit), when one of its buffers commits
// (commitTo) or its machine fails (failMachine), and when a join or a
// mutex wakes it (wakeJoiners, Mutex.wakeAll).
func (ck *Checker) touch(t *Thread) {
	var run, pend uint64
	if !t.mach.failed {
		if t.st.State() == sched.Runnable {
			run = 1
		}
		if len(t.tb.SB) > 0 {
			pend = 1
		}
		if len(t.tb.FB) > 0 {
			pend |= 2
		}
	}
	ck.nRun += setBits(ck.runBits, t.idx, 1, run)
	ck.nPend += setBits(ck.pendBits, 2*t.idx, 3, pend)
}

// setBits sets the one or two bits of set under mask, shifted to position
// i, to v (mask and v shifted alike; i is even when there are two, so they
// share a word), and returns how many more bits are set than before.
func setBits(set []uint64, i int, mask, v uint64) int32 {
	w, sh := i>>6, uint(i&63)
	old := set[w] >> sh & mask
	if old == v {
		return 0
	}
	set[w] ^= (old ^ v) << sh
	return int32(v&1+v>>1) - int32(old&1+old>>1)
}

// nthBit returns the position of the i-th set bit of set (from 0, in
// ascending order).
func nthBit(set []uint64, i int) int {
	for w, word := range set {
		if c := bits.OnesCount64(word); i >= c {
			i -= c
			continue
		}
		for ; i > 0; i-- {
			word &= word - 1
		}
		return w<<6 | bits.TrailingZeros64(word)
	}
	internalPanic("scheduler books: fewer bits set than counted")
	return 0
}

// replayStep re-executes one recorded scheduler step on the fast path:
// the RNG draws are reproduced and validated against the recording (the
// streams must be identical or the prefix property is broken), the
// thread/buffer scans are skipped, and the step's effect runs fully live
// — a commit here, a grant by returning the thread for advance's caller
// to pass the baton to — so every memory-model mutation, failure
// injection and pruning decision is recomputed exactly as recorded.
func (ck *Checker) replayStep(rec *stepRec) *Thread {
	if rec.chance {
		commit := ck.stream.intn(100) < ck.cfg.commitChance
		if commit != (rec.op != opGrant) {
			internalPanic("prefix-fork: commit-chance draw diverged from the recorded prefix")
		}
	}
	if int32(ck.stream.intn(int(rec.pickN))) != rec.pick {
		internalPanic("prefix-fork: selection draw diverged from the recorded prefix")
	}
	if int(rec.thread) >= len(ck.threads) {
		internalPanic("prefix-fork: recorded thread index out of range")
	}
	t := ck.threads[rec.thread]
	if rec.op == opGrant {
		if t.mach.failed || t.st.State() != sched.Runnable {
			internalPanic("prefix-fork: recorded grant of a thread that cannot run")
		}
		return t
	}
	ck.commitTo(t, rec.op == opCommitFB)
	return nil
}

// choose resolves a decision point through the tree, recording the
// scheduler step each decision depth occurred at — the map armFork uses
// to translate the pending decision into a fast-replay boundary. A point
// the tree counts as fresh (its Created count moved; a replayed one does
// not) is also counted into the metrics and the event trace, at the depth
// it was chosen at.
func (ck *Checker) choose(kind decision.Kind, n int) int {
	d := ck.tree.Depth()
	// Only a checker with somewhere to record a point reads the count, so
	// an uninstrumented one (obs off, replay, minimization) pays one test.
	counted := ck.tracer != nil || ck.om.decisions[kind] != nil
	var created int
	if counted {
		created = ck.tree.Created(kind)
	}
	r := ck.tree.Choose(kind, n)
	if counted && ck.tree.Created(kind) != created {
		ck.om.decisions[kind].Inc()
		ck.tracer.Record(ck.workerID, obs.EvDecision, int64(kind), int64(d))
	}
	if ck.forkEnabled {
		if d < len(ck.pathStep) {
			ck.pathStep[d] = ck.stepNo
		} else {
			ck.pathStep = append(ck.pathStep, ck.stepNo)
		}
	}
	return r
}

// armFork arms the prefix-fork fast path for the next execution. Called
// at the execution boundary right after Advance moved the deepest
// pending decision to its next branch: every scheduler step before that
// decision's step replays identically, so the next execution may replay
// the logged prefix instead of re-deriving it. A no-op when the logs do
// not describe the previous execution (fresh or adopted unit, dirty
// state, feature off).
func (ck *Checker) armFork() {
	if !ck.forkOK {
		return
	}
	d := ck.tree.PendingDepth()
	if d < 0 || d >= len(ck.pathStep) {
		return
	}
	ck.forkStep = ck.pathStep[d]
}

// invalidateFork drops the fork logs' claim to describe the next
// execution's prefix — required whenever the checker switches to a
// different decision tree (unit adoption, lease adoption).
func (ck *Checker) invalidateFork() {
	ck.forkOK = false
	ck.forkStep = 0
}

// liveBlockedThreads returns blocked threads on live machines. The result
// aliases a scratch buffer valid until the next call.
func (ck *Checker) liveBlockedThreads() []*Thread {
	out := ck.blockedBuf[:0]
	for _, t := range ck.threads {
		if !t.mach.failed && t.st.State() == sched.Blocked {
			out = append(out, t)
		}
	}
	ck.blockedBuf = out
	return out
}

// onThreadExit is the scheduler's successor hook: st's goroutine is
// exiting — its function returned, a failure or bug unwound it, or it
// panicked — while holding the baton, so it runs the scheduler steps that
// pick who gets it next.
func (ck *Checker) onThreadExit(st *sched.Thread) *sched.Thread {
	t := ck.threads[st.ID]
	ck.touch(t)
	if t.quiesced() {
		ck.wakeJoiners(t.mach)
	}
	if next := ck.advance(); next != nil {
		return next.st
	}
	return nil
}

// commitTo commits the head of thread t's flush buffer (fb) or store
// buffer.
func (ck *Checker) commitTo(t *Thread, fb bool) {
	if fb {
		ck.commitFBHead(t)
	} else {
		ck.commitSBHead(t)
	}
	ck.touch(t)
	if t.quiesced() {
		ck.wakeJoiners(t.mach)
	}
}

// quiesced reports whether the thread has finished and drained its
// buffers: the unit of progress Join and JoinThreads wait for.
func (t *Thread) quiesced() bool {
	return t.st.State() == sched.Finished && t.tb.Empty()
}

// quiesced reports whether every thread of m has finished AND drained its
// buffers: the state a remote failure detector would observe as "machine
// done". Join waits for quiescence so that observers never race with the
// tail of the machine's store buffer (which drains in nanoseconds, while
// failure/termination detection takes milliseconds).
func (m *Machine) quiesced() bool {
	for _, t := range m.threads {
		if !t.quiesced() {
			return false
		}
	}
	return true
}

func (ck *Checker) wakeJoiners(m *Machine) {
	for _, w := range m.joiners {
		w.st.Wake()
		ck.touch(w)
	}
	m.joiners = m.joiners[:0]
}

// failMachine fails machine m: its threads stop, its buffered stores are
// lost, its mutexes are force-released, and (in GPF mode) its cached
// stores are written back in full. If the currently running thread
// belongs to m, the call unwinds it and does not return. why carries the
// cause — the OpFail event's Cause and what it names — and by is the thread
// whose flush or load it was.
func (ck *Checker) failMachine(m *Machine, by *Thread, why OpEvent) {
	if m.failed {
		return
	}
	m.failed = true
	ck.failed = ck.failed.With(m.id)
	if ck.observing {
		why.Kind, why.Failed, why.FailedName = OpFail, m.id, m.name
		ck.observeOp(by, why)
	}
	if ck.cfg.GPF {
		ck.mem.PersistAll(m.id)
	}
	var self *Thread
	for _, t := range m.threads {
		t.tb.Discard()
		ck.touch(t)
		if t == ck.current {
			self = t
			continue
		}
		t.st.Kill()
	}
	for _, mu := range ck.mutexes {
		if mu.owner != nil && mu.owner.mach == m {
			mu.forceRelease()
		}
	}
	ck.wakeJoiners(m)
	if self != nil {
		self.st.KillSelf()
	}
}

// onThreadPanic converts a Go panic escaping benchmark code into a bug
// report (e.g. a division by zero — the class of Table 4's bug 2).
// Checker-invariant panics and replay divergence are not program bugs —
// they are raised by the instruction the thread was executing or by the
// scheduler steps it ran at its instruction boundary — and become the
// run's InternalError instead of a Bug, so the caller gets a structured
// report (with seed and decision path) rather than a crashed process or a
// misattributed finding.
func (ck *Checker) onThreadPanic(st *sched.Thread, v any) {
	if iv, ok := v.(internalInvariant); ok {
		ck.internalErr = ck.newInternalError(iv.msg)
		ck.aborted = true
		return
	}
	if d, ok := v.(decision.Divergence); ok {
		if ck.replaying {
			ck.replayDiverged = &d
		} else {
			ck.internalErr = ck.newInternalError(d.Error())
		}
		ck.aborted = true
		return
	}
	t := ck.threads[st.ID]
	if ck.current != t {
		// The thread was carrying the baton through scheduler steps, not
		// running its own code: the panic is the checker's.
		ck.internalErr = ck.newInternalError(fmt.Sprintf("panic in a scheduler step: %v", v))
		ck.aborted = true
		return
	}
	ck.reportBug(BugPanic, fmt.Sprintf("runtime panic in benchmark code: %v", v), t)
}

// reportBug records a bug (deduplicated by kind+message across the whole
// exploration) and aborts the current execution.
func (ck *Checker) reportBug(kind BugKind, msg string, t *Thread) {
	ck.aborted = true
	if !ck.stats.note(kind, msg) {
		return
	}
	if kind == BugDataRace || kind == BugUnflushedPublish {
		ck.tracer.Record(ck.workerID, obs.EvDataRace, int64(ck.execNo), 0)
	}
	b := Bug{Kind: kind, Message: msg, Execution: ck.execNo}
	if t != nil {
		b.Machine = t.mach.name
		b.Thread = t.name
	}
	if ck.progDigest != "" {
		b.ReproToken = encodeReproToken(reproToken{
			Seed:    ck.cfg.Seed,
			Config:  ck.cfgDigest,
			Program: ck.progDigest,
			Path:    decision.EncodePath(ck.tree.Path()),
		})
	}
	ck.stats.Bugs = append(ck.stats.Bugs, b)
	if ck.observing {
		reported := b
		ck.observeOp(t, OpEvent{Kind: OpBug, Bug: &reported})
	}
}

// reportBugHere reports a bug attributed to the currently running thread
// and, when called from thread context, unwinds that thread so the buggy
// operation never completes.
func (ck *Checker) reportBugHere(kind BugKind, msg string) {
	t := ck.current
	ck.reportBug(kind, msg, t)
	if t != nil {
		t.st.KillSelf()
	}
}
