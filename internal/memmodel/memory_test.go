package memmodel

import "testing"

func TestInitWriteAndInitialByte(t *testing.T) {
	m := NewMemory()
	m.InitWrite(100, 4, 0x44332211)
	for i, want := range []byte{0x11, 0x22, 0x33, 0x44} {
		if got := m.InitialByte(Addr(100 + i)); got != want {
			t.Errorf("initial byte %d = %#x, want %#x", 100+i, got, want)
		}
	}
	if m.InitialByte(99) != 0 || m.InitialByte(104) != 0 {
		t.Error("untouched bytes must read zero")
	}
}

func TestInitWriteStraddlesLines(t *testing.T) {
	m := NewMemory()
	m.InitWrite(60, 8, 0x8877665544332211)
	if got := m.InitialByte(63); got != 0x44 {
		t.Errorf("byte 63 = %#x, want 0x44", got)
	}
	if got := m.InitialByte(64); got != 0x55 {
		t.Errorf("byte 64 = %#x, want 0x55", got)
	}
}

func TestConstraintDefaultAndRaise(t *testing.T) {
	m := NewMemory()
	c := m.Constraint(0, 5)
	if c != DefaultConstraint {
		t.Fatalf("default constraint = %v", c)
	}
	old, now := m.RaiseBegin(0, 5, 10)
	if old.Begin != 0 || now.Begin != 10 {
		t.Fatalf("raise: old %v, now %v", old, now)
	}
	// Raising to a lower value is a no-op.
	_, now = m.RaiseBegin(0, 5, 3)
	if now.Begin != 10 {
		t.Fatalf("begin lowered: %v", now)
	}
	m.LowerEnd(0, 5, 20)
	m.LowerEnd(0, 5, 30) // no-op
	if got := m.Constraint(0, 5); got.Begin != 10 || got.End != 20 {
		t.Fatalf("constraint = %v, want [10,20)", got)
	}
}

func TestConstraintsPerMachine(t *testing.T) {
	m := NewMemory()
	m.RaiseBegin(0, 1, 5)
	if m.Constraint(1, 1) != DefaultConstraint {
		t.Fatal("machine 1's constraint must be independent of machine 0's")
	}
}

func TestCommitStoreAssignsSeqAndMachine(t *testing.T) {
	m := NewMemory()
	tb := NewThreadBuf()
	tb.ExecStore(8, 8, 42)
	st := m.CommitStore(tb, 3)
	if st.Seq != 1 || st.Machine != 3 || st.Val != 42 {
		t.Fatalf("committed store = %+v", st)
	}
	got := m.StoresOn(LineOf(8))
	if len(got) != 1 || got[0] != st {
		t.Fatalf("store log = %v", got)
	}
	if tb.lastLineOp(m.slotOf(LineOf(8))) != st.Seq {
		t.Fatal("t_line not updated")
	}
}

func TestPreviewClflushDoesNotMutate(t *testing.T) {
	m := NewMemory()
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 1)
	m.CommitStore(tb, 0)
	tb.ExecClflush(0)
	eff := m.PreviewClflush(tb, 0)
	if eff.NewBegin != m.Seq()+1 {
		t.Fatalf("previewed begin %d, want %d", eff.NewBegin, m.Seq()+1)
	}
	if m.Constraint(0, 0).Begin != 0 {
		t.Fatal("preview mutated the constraint")
	}
	if tb.Head() == nil || tb.Head().Kind != SBClflush {
		t.Fatal("preview consumed the entry")
	}
	applied := m.CommitClflush(tb, 0)
	if applied.NewBegin != eff.NewBegin {
		t.Fatalf("apply %d disagrees with preview %d", applied.NewBegin, eff.NewBegin)
	}
	if m.Constraint(0, 0).Begin != applied.NewBegin {
		t.Fatal("apply did not raise begin")
	}
}

func TestHasStoreBy(t *testing.T) {
	m := NewMemory()
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 1)
	tb.ExecStore(8, 8, 2)
	s1 := m.CommitStore(tb, 0) // seq 1
	s2 := m.CommitStore(tb, 0) // seq 2
	ln := LineOf(0)
	if !m.HasStoreBy(0, ln, 0, 2) {
		t.Fatal("should find stores in (0,2]")
	}
	if m.HasStoreBy(1, ln, 0, 2) {
		t.Fatal("machine 1 has no stores")
	}
	if m.HasStoreBy(0, ln, s2.Seq, SeqInf) {
		t.Fatal("no stores above seq 2")
	}
	if !m.HasStoreBy(0, ln, s1.Seq, s2.Seq) {
		t.Fatal("should find store at seq 2 in (1,2]")
	}
}

func TestNextStoreAfter(t *testing.T) {
	m := NewMemory()
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 1) // covers bytes 0-7, seq 1
	tb.ExecStore(8, 8, 2) // bytes 8-15, seq 2
	tb.ExecStore(0, 8, 3) // bytes 0-7, seq 3
	for i := 0; i < 3; i++ {
		m.CommitStore(tb, 0)
	}
	if s, ok := m.NextStoreAfter(0, 1); !ok || s != 3 {
		t.Fatalf("next after 1 = %d,%v; want 3 (seq-2 store does not cover byte 0)", s, ok)
	}
	if _, ok := m.NextStoreAfter(0, 3); ok {
		t.Fatal("no store after seq 3")
	}
	if _, ok := m.NextStoreAfter(999, 0); ok {
		t.Fatal("untouched line has no stores")
	}
}

func TestCrossesLiveStore(t *testing.T) {
	m := NewMemory()
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 1)
	st := m.CommitStore(tb, 0)
	eff := FlushEffect{Machine: 0, Line: LineOf(0), OldBegin: 0, NewBegin: st.Seq}
	if !m.CrossesLiveStore(eff) {
		t.Fatal("flush crossing a store must be an injection point")
	}
	eff2 := FlushEffect{Machine: 0, Line: LineOf(0), OldBegin: st.Seq, NewBegin: st.Seq + 5}
	if m.CrossesLiveStore(eff2) {
		t.Fatal("no store crossed above seq 1")
	}
	eff3 := FlushEffect{Machine: 1, Line: LineOf(0), OldBegin: 0, NewBegin: st.Seq}
	if m.CrossesLiveStore(eff3) {
		t.Fatal("machine 1 issued no stores")
	}
	eff4 := FlushEffect{Machine: 0, Line: LineOf(0), OldBegin: 3, NewBegin: 3}
	if m.CrossesLiveStore(eff4) {
		t.Fatal("non-advancing effect crosses nothing")
	}
}

func TestCommitDirectStore(t *testing.T) {
	m := NewMemory()
	tb := NewThreadBuf()
	st := m.CommitDirectStore(tb, 2, 16, 8, 99)
	if st.Seq != 1 || st.Machine != 2 {
		t.Fatalf("direct store = %+v", st)
	}
	if len(m.StoresOn(LineOf(16))) != 1 {
		t.Fatal("direct store not in queue")
	}
}

func TestPersistAll(t *testing.T) {
	m := NewMemory()
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 1)
	tb.ExecStore(64, 8, 2)
	m.CommitStore(tb, 0)
	m.CommitStore(tb, 0)
	// Another machine's store on line 0 must not be affected.
	tb2 := NewThreadBuf()
	tb2.ExecStore(8, 8, 3)
	m.CommitStore(tb2, 1)
	m.PersistAll(0)
	now := m.Seq()
	if got := m.Constraint(0, 0); got.Begin != now {
		t.Fatalf("line 0 begin = %d, want %d", got.Begin, now)
	}
	if got := m.Constraint(0, 1); got.Begin != now {
		t.Fatalf("line 1 begin = %d, want %d", got.Begin, now)
	}
	if got := m.Constraint(1, 0); got.Begin != 0 {
		t.Fatalf("machine 1 constraint touched: %v", got)
	}
}

func TestCommitPanicsOnWrongHead(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	m := NewMemory()
	tb := NewThreadBuf()
	tb.ExecSfence()
	assertPanics("CommitStore", func() { m.CommitStore(tb, 0) })
	assertPanics("CommitClflush", func() { m.CommitClflush(tb, 0) })
	assertPanics("CommitClflushopt", func() { m.CommitClflushopt(tb) })
	assertPanics("CommitFB-empty", func() { m.CommitFB(tb, 0) })
	assertPanics("PreviewFB-empty", func() { m.PreviewFB(tb, 0) })
	tb2 := NewThreadBuf()
	tb2.ExecStore(0, 8, 1)
	assertPanics("CommitSfence", func() { m.CommitSfence(tb2) })
	assertPanics("PreviewClflush", func() { m.PreviewClflush(tb2, 0) })
}

// TestReserveSizesAndBoundsTheIndex: Reserve sizes the line index for the
// allocated part of the region at once, on-demand growth never takes it
// past the region, and a line beyond the region panics rather than
// growing anything.
func TestReserveSizesAndBoundsTheIndex(t *testing.T) {
	m := NewMemory()
	m.Reserve(3*LineSize+1, 100*LineSize)
	if len(m.index) != 4 {
		t.Fatalf("index spans %d lines after Reserve of 3 lines and a byte, want 4", len(m.index))
	}
	m.InitWrite(70*LineSize, 8, 1) // allocated later in the execution
	if len(m.index) != 100 {
		t.Fatalf("index spans %d lines, want growth by doubling clamped to the 100-line region", len(m.index))
	}
	m.InitWrite(99*LineSize+56, 8, 2)
	if m.InitialByte(99*LineSize+56) != 2 || m.InitialByte(70*LineSize) != 1 {
		t.Fatal("writes at the end of the region lost")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a line beyond the reserved region did not panic")
		}
		if len(m.index) != 100 {
			t.Fatalf("index spans %d lines after the refused access, want 100", len(m.index))
		}
	}()
	m.InitWrite(100*LineSize, 1, 3)
}

// TestUnboundedIndexGrowsByDoubling: a direct user that never calls
// Reserve gets an index that doubles up to the line it needs.
func TestUnboundedIndexGrowsByDoubling(t *testing.T) {
	m := NewMemory()
	m.Slot(0)
	if len(m.index) != 64 {
		t.Fatalf("first index spans %d lines, want 64", len(m.index))
	}
	m.Slot(1000)
	if len(m.index) != 1024 {
		t.Fatalf("index spans %d lines after touching line 1000, want 1024", len(m.index))
	}
	if m.Slot(0) != 0 || m.Slot(1000) != 1 {
		t.Fatalf("slots %d, %d: growth must keep assignments", m.Slot(0), m.Slot(1000))
	}
}
