package memmodel

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// scen drives the memory model directly (one thread per machine, commits
// applied eagerly), which is all the figure scenarios need.
type scen struct {
	m      *Memory
	tbs    map[MachineID]*ThreadBuf
	failed FailSet
}

func newScen() *scen {
	return &scen{m: NewMemory(), tbs: make(map[MachineID]*ThreadBuf)}
}

func (s *scen) tb(mach MachineID) *ThreadBuf {
	tb := s.tbs[mach]
	if tb == nil {
		tb = NewThreadBuf()
		s.tbs[mach] = tb
	}
	return tb
}

func (s *scen) store(mach MachineID, a Addr, v uint64) Store {
	tb := s.tb(mach)
	tb.ExecStore(a, 8, v)
	return s.m.CommitStore(tb, mach)
}

func (s *scen) clflush(mach MachineID, a Addr) FlushEffect {
	tb := s.tb(mach)
	tb.ExecClflush(a)
	return s.m.CommitClflush(tb, mach)
}

func (s *scen) fail(mach MachineID) { s.failed = s.failed.With(mach) }

func (s *scen) rc(curr MachineID) *ReadContext {
	return &ReadContext{Mem: s.m, Curr: curr, Failed: s.failed}
}

// vals extracts the candidate byte values, newest first.
func vals(cs []Candidate) []byte {
	out := make([]byte, len(cs))
	for i, c := range cs {
		out[i] = c.Val
	}
	return out
}

func collect(it *CandidateIter) []Candidate {
	var out []Candidate
	for {
		c, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, c)
	}
}

const (
	yAddr = Addr(0) // y and x share cache line 0 and do not overlap
	xAddr = Addr(8)
)

// figure2 builds the paper's Figure 2 execution: machine A stores y=1,
// x=2, clflush, y=3, x=4, y=5, x=6 and then fails.
func figure2(t *testing.T) *scen {
	t.Helper()
	s := newScen()
	s.store(0, yAddr, 1) // σ1
	s.store(0, xAddr, 2) // σ2
	s.clflush(0, yAddr)  // σ3
	s.store(0, yAddr, 3) // σ4
	s.store(0, xAddr, 4) // σ5
	s.store(0, yAddr, 5) // σ6
	s.store(0, xAddr, 6) // σ7
	s.fail(0)
	return s
}

func TestFigure2ConstraintAfterClflush(t *testing.T) {
	s := figure2(t)
	got := s.m.Constraint(0, LineOf(yAddr))
	if got.Begin != 3 || got.End != SeqInf {
		t.Fatalf("constraint = %v, want [3,∞)", got)
	}
}

func TestFigure2PostCrashReadSets(t *testing.T) {
	s := figure2(t)
	rc := s.rc(1)
	// x: the clflush at σ3 persisted x=2; later x=4 and x=6 may or may
	// not have been written back.
	if got := vals(rc.BuildMayReadFrom(xAddr)); !reflect.DeepEqual(got, []byte{6, 4, 2}) {
		t.Fatalf("x candidates = %v, want [6 4 2]", got)
	}
	// y: y=1 is persisted, y=3 and y=5 are in doubt.
	if got := vals(rc.BuildMayReadFrom(yAddr)); !reflect.DeepEqual(got, []byte{5, 3, 1}) {
		t.Fatalf("y candidates = %v, want [5 3 1]", got)
	}
}

// figure3 builds the paper's Figure 3: machine B's load of x=2 while A is
// live forces a write-back (raising A's Begin); A then continues and
// fails; B's loads of y and x resolve against the refined constraint.
func TestFigure3RemoteLoadRefinesThenLocks(t *testing.T) {
	s := newScen()
	s.store(0, yAddr, 1) // σ1
	st2 := s.store(0, xAddr, 2)

	// B loads x while A is live: the only cache value is A's latest
	// x-store; reading it forces the line's write-back.
	rc := s.rc(1)
	cands := rc.BuildMayReadFrom(xAddr)
	if len(cands) == 0 || cands[0].Val != 2 || cands[0].Machine != 0 {
		t.Fatalf("live read candidates = %+v", cands)
	}
	rc.ApplyReadConstraint(xAddr, cands[0], false)
	if got := s.m.Constraint(0, LineOf(xAddr)); got.Begin != st2.Seq {
		t.Fatalf("constraint after remote load = %v, want Begin=%d", got, st2.Seq)
	}

	s.store(0, yAddr, 3) // σ3
	s.store(0, xAddr, 4) // σ4
	s.store(0, yAddr, 5) // σ5
	s.store(0, xAddr, 6) // σ6
	s.fail(0)

	// B loads y: the paper's possible values are y=1, y=3 or y=5.
	rc = s.rc(1)
	got := vals(rc.BuildMayReadFrom(yAddr))
	if !reflect.DeepEqual(got, []byte{5, 3, 1}) {
		t.Fatalf("y candidates = %v, want [5 3 1]", got)
	}

	// Suppose the result is 3: the write-back happened after y=3 but
	// before y=5.
	var chosen Candidate
	for _, c := range rc.BuildMayReadFrom(yAddr) {
		if c.Val == 3 {
			chosen = c
		}
	}
	rc.ApplyReadConstraint(yAddr, chosen, true)

	// Subsequent loads of y can only see 3 (consistency of consecutive
	// loads, §3.3)...
	if got := vals(rc.BuildMayReadFrom(yAddr)); !reflect.DeepEqual(got, []byte{3}) {
		t.Fatalf("y after refinement = %v, want [3]", got)
	}
	// ...and loads of x can see 2 or 4, but no longer 6.
	if got := vals(rc.BuildMayReadFrom(xAddr)); !reflect.DeepEqual(got, []byte{4, 2}) {
		t.Fatalf("x after refinement = %v, want [4 2]", got)
	}
}

// TestFigure4 reproduces the two-failure scenario: per-machine constraints
// must be consulted independently.
func TestFigure4PerMachineConstraints(t *testing.T) {
	s := newScen()
	s.store(0, yAddr, 1) // A, σ1
	s.store(0, xAddr, 2) // A, σ2
	s.store(0, yAddr, 3) // A, σ3
	s.store(0, xAddr, 4) // A, σ4
	s.fail(0)
	s.store(1, yAddr, 5) // B, σ5
	s.clflush(1, yAddr)  // B, σ6
	s.fail(1)

	if got := s.m.Constraint(0, LineOf(xAddr)); got != DefaultConstraint {
		t.Fatalf("A's constraint = %v, want default", got)
	}
	if got := s.m.Constraint(1, LineOf(xAddr)); got.Begin != 6 {
		t.Fatalf("B's constraint = %v, want Begin=6", got)
	}

	rc := s.rc(2)
	// C loads x: A's stores are in doubt all the way down to the initial
	// contents (A never flushed and nothing was read from it).
	if got := vals(rc.BuildMayReadFrom(xAddr)); !reflect.DeepEqual(got, []byte{4, 2, 0}) {
		t.Fatalf("x candidates = %v, want [4 2 0]", got)
	}
	// C loads y: B's clflush persisted y=5, which permanently overwrites
	// A's y-stores — the only possible value is 5.
	if got := vals(rc.BuildMayReadFrom(yAddr)); !reflect.DeepEqual(got, []byte{5}) {
		t.Fatalf("y candidates = %v, want [5]", got)
	}

	// C reads x=2: A's constraint locks to [2,4) exactly as in the paper.
	var chosen Candidate
	for _, c := range rc.BuildMayReadFrom(xAddr) {
		if c.Val == 2 {
			chosen = c
		}
	}
	rc.ApplyReadConstraint(xAddr, chosen, true)
	if got := s.m.Constraint(0, LineOf(xAddr)); got.Begin != 2 || got.End != 4 {
		t.Fatalf("A's constraint after read = %v, want [2,4)", got)
	}
}

func TestReadFromFailedMachineLocksValue(t *testing.T) {
	s := newScen()
	s.store(0, xAddr, 1)
	s.store(0, xAddr, 2)
	s.fail(0)
	rc := s.rc(1)
	cands := rc.BuildMayReadFrom(xAddr)
	if got := vals(cands); !reflect.DeepEqual(got, []byte{2, 1, 0}) {
		t.Fatalf("candidates = %v", got)
	}
	// Reading the middle store locks it in: the later store is lost, the
	// earlier one overwritten.
	rc.ApplyReadConstraint(xAddr, cands[1], true)
	if got := vals(rc.BuildMayReadFrom(xAddr)); !reflect.DeepEqual(got, []byte{1}) {
		t.Fatalf("after locking to 1: %v", got)
	}
}

func TestReadingInitialValueKillsFailedStores(t *testing.T) {
	// Once a failed machine's line is observed at its initial value, the
	// machine's stores can never appear: its cache is gone and cannot
	// write back (the consecutive-load consistency strengthening).
	s := newScen()
	s.store(0, xAddr, 1)
	s.store(0, xAddr, 2)
	s.fail(0)
	rc := s.rc(1)
	cands := rc.BuildMayReadFrom(xAddr)
	initial := cands[len(cands)-1]
	if initial.Machine != DeviceID {
		t.Fatalf("last candidate should be the device value: %+v", initial)
	}
	rc.ApplyReadConstraint(xAddr, initial, false)
	if got := vals(rc.BuildMayReadFrom(xAddr)); !reflect.DeepEqual(got, []byte{0}) {
		t.Fatalf("after reading initial value: %v, want [0]", got)
	}
}

func TestLiveMachineFailureExpansion(t *testing.T) {
	// A (live) stores twice without flushing; B's read-from set must
	// include the older store and initial value, tagged with A's failure.
	s := newScen()
	s.store(0, xAddr, 1)
	s.store(0, xAddr, 2)
	rc := s.rc(1)
	cands := rc.BuildMayReadFrom(xAddr)
	if got := vals(cands); !reflect.DeepEqual(got, []byte{2, 1, 0}) {
		t.Fatalf("candidates = %v", got)
	}
	if !cands[0].Fail.Empty() {
		t.Fatalf("reading the live latest store requires no failures: %v", cands[0].Fail)
	}
	if !cands[1].Fail.Has(0) || !cands[2].Fail.Has(0) {
		t.Fatal("older candidates require failing machine 0")
	}
}

func TestNoExpansionPastFlushedLiveStore(t *testing.T) {
	// A stores and clflushes: the store is persisted, so failing A gains
	// nothing and the read-from set is a singleton.
	s := newScen()
	s.store(0, xAddr, 7)
	s.clflush(0, xAddr)
	rc := s.rc(1)
	cands := rc.BuildMayReadFrom(xAddr)
	if got := vals(cands); !reflect.DeepEqual(got, []byte{7}) {
		t.Fatalf("candidates = %v, want [7]", got)
	}
}

func TestOwnStoreNotExpandable(t *testing.T) {
	// The loading machine cannot fail itself: its own latest store is
	// terminal even when unflushed.
	s := newScen()
	s.store(0, xAddr, 9)
	rc := s.rc(0)
	cands := rc.BuildMayReadFrom(xAddr)
	if got := vals(cands); !reflect.DeepEqual(got, []byte{9}) {
		t.Fatalf("candidates = %v, want [9]", got)
	}
}

func TestGPFReadsAreTSO(t *testing.T) {
	// Under GPF, failure loses nothing: even a failed machine's
	// unflushed store is the unique read result (§6.2).
	s := newScen()
	s.store(0, xAddr, 1)
	s.store(0, xAddr, 2)
	s.fail(0)
	rc := s.rc(1)
	rc.GPF = true
	if got := vals(rc.BuildMayReadFrom(xAddr)); !reflect.DeepEqual(got, []byte{2}) {
		t.Fatalf("GPF candidates = %v, want [2]", got)
	}
	var it CandidateIter
	rc.CandidatesInto(&it, xAddr)
	if got := vals(collect(&it)); !reflect.DeepEqual(got, []byte{2}) {
		t.Fatalf("GPF iterator = %v, want [2]", got)
	}
}

func TestMultiByteTornRead(t *testing.T) {
	// Two 4-byte stores into one 8-byte word by a failed machine with no
	// flushes: each half resolves independently, so a torn (mixed) result
	// is reachable — the crash-consistency hazard multi-byte objects face.
	s := newScen()
	tb := s.tb(0)
	tb.ExecStore(0, 4, 0x11111111)
	s.m.CommitStore(tb, 0)
	tb.ExecStore(4, 4, 0x22222222)
	s.m.CommitStore(tb, 0)
	s.fail(0)
	rc := s.rc(1)
	lo := rc.BuildMayReadFrom(0)
	hi := rc.BuildMayReadFrom(4)
	if got := vals(lo); !reflect.DeepEqual(got, []byte{0x11, 0}) {
		t.Fatalf("low half = %v", got)
	}
	if got := vals(hi); !reflect.DeepEqual(got, []byte{0x22, 0}) {
		t.Fatalf("high half = %v", got)
	}
}

func TestCandidateIterMatchesReference(t *testing.T) {
	// Differential property test: the lazy §4.5 iterator must enumerate
	// exactly the Algorithm 3 reference set, for randomized histories of
	// stores, flushes and failures across several machines and lines.
	rng := rand.New(rand.NewSource(20260707))
	addrs := []Addr{0, 8, 16, 64, 72}
	for trial := 0; trial < 500; trial++ {
		s := newScen()
		nMach := 2 + rng.Intn(3)
		nOps := 1 + rng.Intn(20)
		for i := 0; i < nOps; i++ {
			mach := MachineID(rng.Intn(nMach))
			if s.failed.Has(mach) {
				continue
			}
			a := addrs[rng.Intn(len(addrs))]
			switch rng.Intn(10) {
			case 0:
				s.clflush(mach, a)
			case 1:
				s.fail(mach)
			default:
				s.store(mach, a, uint64(rng.Intn(200))+1)
			}
		}
		// Pick a live current machine; if none, add one.
		curr := MachineID(nMach)
		for m := MachineID(0); m < MachineID(nMach); m++ {
			if !s.failed.Has(m) {
				curr = m
				break
			}
		}
		for _, a := range addrs {
			for _, byteOff := range []Addr{0, 3, 7} {
				b := a + byteOff
				rc := s.rc(curr)
				ref := rc.BuildMayReadFrom(b)
				var it CandidateIter
				rc.CandidatesInto(&it, b)
				got := collect(&it)
				sortCands(ref)
				sortCands(got)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("trial %d byte %d:\nreference: %+v\niterator:  %+v", trial, b, ref, got)
				}
			}
		}
	}
}

func sortCands(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Seq != cs[j].Seq {
			return cs[i].Seq < cs[j].Seq
		}
		return cs[i].Fail < cs[j].Fail
	})
}

func TestCandidateIterHasMore(t *testing.T) {
	s := newScen()
	s.store(0, xAddr, 1)
	s.fail(0)
	rc := s.rc(1)
	var it CandidateIter
	rc.CandidatesInto(&it, xAddr)
	if !it.HasMore() {
		t.Fatal("iterator should start with a candidate")
	}
	c1, ok := it.Next()
	if !ok || c1.Val != 1 {
		t.Fatalf("first = %+v,%v", c1, ok)
	}
	if !it.HasMore() {
		t.Fatal("initial value still pending")
	}
	c2, ok := it.Next()
	if !ok || c2.Val != 0 || c2.Machine != DeviceID {
		t.Fatalf("second = %+v,%v", c2, ok)
	}
	if it.HasMore() {
		t.Fatal("iterator should be exhausted")
	}
	if _, ok := it.Next(); ok {
		t.Fatal("Next after exhaustion must fail")
	}
}

func TestInitialValueFromImage(t *testing.T) {
	s := newScen()
	s.m.InitWrite(xAddr, 8, 0xAB)
	rc := s.rc(1)
	cands := rc.BuildMayReadFrom(xAddr)
	if len(cands) != 1 || cands[0].Val != 0xAB || cands[0].Machine != DeviceID {
		t.Fatalf("candidates = %+v", cands)
	}
}

func TestLostStoreSkipped(t *testing.T) {
	// A store at or after its failed machine's End constraint is
	// definitely lost and must not appear in any read-from set.
	s := newScen()
	s.store(0, xAddr, 1) // σ1
	s.store(0, xAddr, 2) // σ2
	s.fail(0)
	s.m.LowerEnd(0, LineOf(xAddr), 2) // write-back happened before σ2
	rc := s.rc(1)
	if got := vals(rc.BuildMayReadFrom(xAddr)); !reflect.DeepEqual(got, []byte{1, 0}) {
		t.Fatalf("candidates = %v, want [1 0]", got)
	}
}
