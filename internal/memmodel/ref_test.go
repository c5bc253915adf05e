package memmodel

import (
	"math/rand"
	"reflect"
	"testing"
)

// This file holds the reference the dense tables are tested against: the
// hash-map tables and the copying read path exactly as they were before
// the line records replaced them, driven op for op beside the production
// Memory by TestDenseTablesMatchReference.

type conKey struct {
	m  MachineID
	ln LineID
}

// refMemory is the map-backed memory: a store log, a constraint and an
// initial image per key, absent meaning empty / default / zero.
type refMemory struct {
	seq     Seq
	lines   map[LineID][]Store
	cons    map[conKey]Constraint
	initial map[LineID]*[LineSize]byte
}

func newRefMemory() *refMemory {
	return &refMemory{
		lines:   map[LineID][]Store{},
		cons:    map[conKey]Constraint{},
		initial: map[LineID]*[LineSize]byte{},
	}
}

func (m *refMemory) initWrite(a Addr, size uint8, val uint64) {
	for i := Addr(0); i < Addr(size); i++ {
		ln := LineOf(a + i)
		if m.initial[ln] == nil {
			m.initial[ln] = new([LineSize]byte)
		}
		m.initial[ln][a+i-LineBase(ln)] = byte(val >> (8 * i))
	}
}

func (m *refMemory) initialByte(b Addr) byte {
	if img := m.initial[LineOf(b)]; img != nil {
		return img[b-LineBase(LineOf(b))]
	}
	return 0
}

func (m *refMemory) constraint(mach MachineID, ln LineID) Constraint {
	if c, ok := m.cons[conKey{mach, ln}]; ok {
		return c
	}
	return DefaultConstraint
}

func (m *refMemory) raiseBegin(mach MachineID, ln LineID, s Seq) {
	if c := m.constraint(mach, ln); s > c.Begin {
		c.Begin = s
		m.cons[conKey{mach, ln}] = c
	}
}

func (m *refMemory) lowerEnd(mach MachineID, ln LineID, s Seq) {
	if c := m.constraint(mach, ln); s < c.End {
		c.End = s
		m.cons[conKey{mach, ln}] = c
	}
}

func (m *refMemory) persistAll(mach MachineID) {
	for ln, stores := range m.lines {
		for _, s := range stores {
			if s.Machine == mach {
				m.raiseBegin(mach, ln, m.seq)
				break
			}
		}
	}
}

func (m *refMemory) hasStoreBy(mach MachineID, ln LineID, lo, hi Seq) bool {
	for _, s := range m.lines[ln] {
		if s.Seq > lo && s.Seq <= hi && s.Machine == mach {
			return true
		}
	}
	return false
}

func (m *refMemory) nextStoreAfter(b Addr, after Seq) (Seq, bool) {
	for _, s := range m.lines[LineOf(b)] {
		if s.Seq > after && s.Covers(b) {
			return s.Seq, true
		}
	}
	return 0, false
}

// refBuf is one thread's reordering state over the reference memory, with
// t_{τ,line} as its own map.
type refBuf struct {
	sb      []SBEntry
	fb      []FBEntry
	tsfence Seq
	tline   map[LineID]Seq
}

func (m *refMemory) appendStore(tb *refBuf, st Store) {
	m.seq++
	st.Seq = m.seq
	m.lines[LineOf(st.Addr)] = append(m.lines[LineOf(st.Addr)], st)
	tb.tline[LineOf(st.Addr)] = st.Seq
}

// commitSB commits the head of tb's store buffer (Algorithm 2).
func (m *refMemory) commitSB(tb *refBuf, mach MachineID) {
	e := tb.sb[0]
	tb.sb = tb.sb[1:]
	switch e.Kind {
	case SBStore:
		e.St.Machine = mach
		m.appendStore(tb, e.St)
	case SBClflush:
		m.seq++
		m.raiseBegin(mach, LineOf(e.Addr), m.seq)
		tb.tline[LineOf(e.Addr)] = m.seq
	case SBClflushopt:
		eff := max(e.ExecSeq, tb.tline[LineOf(e.Addr)], tb.tsfence)
		tb.fb = append(tb.fb, FBEntry{Addr: e.Addr, EffSeq: eff})
	case SBSfence:
		m.seq++
		tb.tsfence = m.seq
	}
}

func (m *refMemory) commitFB(tb *refBuf, mach MachineID) {
	e := tb.fb[0]
	tb.fb = tb.fb[1:]
	m.raiseBegin(mach, LineOf(e.Addr), e.EffSeq)
}

// candidates is the lazy newest-first enumeration (§4.5) over a filtered
// copy of the line's stores, drained into a list.
func (m *refMemory) candidates(b Addr, curr MachineID, phi FailSet) []Candidate {
	var covering []Store
	for _, s := range m.lines[LineOf(b)] {
		if s.Covers(b) {
			covering = append(covering, s)
		}
	}
	var out []Candidate
	for i := len(covering) - 1; i >= 0; i-- {
		s := &covering[i]
		c := m.constraint(s.Machine, LineOf(b))
		if phi.Has(s.Machine) && s.Seq >= c.End {
			continue // definitely lost
		}
		out = append(out, Candidate{Val: s.Byte(b), Seq: s.Seq, Machine: s.Machine, Fail: phi})
		if !phi.Has(s.Machine) && s.Machine != curr && s.Seq > c.Begin {
			phi = phi.With(s.Machine) // searching on means failing its machine
			continue
		}
		if !phi.Has(s.Machine) || s.Seq <= c.Begin {
			return out // permanently overwrites everything earlier
		}
	}
	return append(out, Candidate{Val: m.initialByte(b), Machine: DeviceID, Fail: phi})
}

// applyReadConstraint is Algorithm 4 with two oldest-first scans.
func (m *refMemory) applyReadConstraint(b Addr, c Candidate, curr MachineID, failed FailSet) {
	ln := LineOf(b)
	for _, s := range m.lines[ln] {
		if s.Seq > c.Seq && s.Covers(b) && failed.Has(s.Machine) {
			m.lowerEnd(s.Machine, ln, s.Seq)
		}
	}
	switch {
	case c.Machine == DeviceID:
	case failed.Has(c.Machine):
		m.raiseBegin(c.Machine, ln, c.Seq)
		if next, ok := m.nextStoreAfter(b, c.Seq); ok {
			m.lowerEnd(c.Machine, ln, next)
		}
	case c.Machine != curr:
		m.raiseBegin(c.Machine, ln, c.Seq)
	}
}

// diffRig runs one op sequence on both implementations: four threads on
// three machines, addresses on lines 1–4 (lines 0 and 5 stay untouched
// and are compared too).
type diffRig struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	m      *Memory
	tbs    []*ThreadBuf
	ref    *refMemory
	rtbs   []*refBuf
	failed FailSet
	rc     ReadContext
	it     CandidateIter
}

const diffThreads, diffMachines = 4, 3

func newDiffRig(t *testing.T, seed int64) *diffRig {
	d := &diffRig{t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), m: NewMemory(), ref: newRefMemory()}
	for i := 0; i < diffThreads; i++ {
		d.tbs = append(d.tbs, NewThreadBuf())
		d.rtbs = append(d.rtbs, &refBuf{tline: map[LineID]Seq{}})
	}
	d.rc.Mem = d.m
	return d
}

func (d *diffRig) addr(size uint8) Addr {
	ln := Addr(1 + d.rng.Intn(4))
	return ln*LineSize + Addr(d.rng.Intn(LineSize/int(size)))*Addr(size)
}

func (d *diffRig) reset() {
	d.m.Reset()
	d.ref = newRefMemory()
	for i := range d.tbs {
		d.tbs[i].Reset()
		d.rtbs[i] = &refBuf{tline: map[LineID]Seq{}}
	}
	d.failed = 0
}

// commitSB executes e on thread i and commits it at once on both sides.
func (d *diffRig) commitSB(i int, e SBEntry) {
	tb, mach := d.tbs[i], MachineID(i%diffMachines)
	switch e.Kind {
	case SBStore:
		tb.ExecStore(e.St.Addr, e.St.Size, e.St.Val)
		d.m.CommitStore(tb, mach)
	case SBClflush:
		tb.ExecClflush(e.Addr)
		d.m.CommitClflush(tb, mach)
	case SBClflushopt:
		tb.ExecClflushopt(e.Addr, e.ExecSeq)
		d.m.CommitClflushopt(tb)
	case SBSfence:
		tb.ExecSfence()
		d.m.CommitSfence(tb)
	}
	d.rtbs[i].sb = append(d.rtbs[i].sb, e)
	d.ref.commitSB(d.rtbs[i], mach)
}

// step applies one random op to both sides.
func (d *diffRig) step() {
	rng := d.rng
	i := rng.Intn(diffThreads)
	mach := MachineID(i % diffMachines)
	size := uint8(1) << rng.Intn(4)
	val := rng.Uint64()
	if size < 8 {
		val &= 1<<(8*size) - 1
	}
	switch op := rng.Intn(14); op {
	case 0:
		a := d.addr(size)
		d.m.InitWrite(a, size, val)
		d.ref.initWrite(a, size, val)
	case 1, 2, 3:
		d.commitSB(i, SBEntry{Kind: SBStore, St: Store{Addr: d.addr(size), Size: size, Val: val}})
	case 4:
		a := d.addr(size)
		d.m.CommitDirectStore(d.tbs[i], mach, a, size, val)
		d.ref.appendStore(d.rtbs[i], Store{Addr: a, Size: size, Val: val, Machine: mach})
	case 5:
		d.commitSB(i, SBEntry{Kind: SBClflush, Addr: d.addr(1)})
	case 6:
		d.commitSB(i, SBEntry{Kind: SBClflushopt, Addr: d.addr(1), ExecSeq: d.m.Seq()})
	case 7:
		d.commitSB(i, SBEntry{Kind: SBSfence})
		for len(d.tbs[i].FB) > 0 {
			d.m.CommitFB(d.tbs[i], mach)
			d.ref.commitFB(d.rtbs[i], mach)
		}
	case 8:
		if len(d.tbs[i].FB) > 0 {
			d.m.CommitFB(d.tbs[i], mach)
			d.ref.commitFB(d.rtbs[i], mach)
		}
	case 9:
		ln, s := LineOf(d.addr(1)), Seq(rng.Intn(int(d.m.Seq())+2))
		if rng.Intn(2) == 0 {
			d.m.RaiseBegin(mach, ln, s)
			d.ref.raiseBegin(mach, ln, s)
		} else {
			d.m.LowerEnd(mach, ln, s)
			d.ref.lowerEnd(mach, ln, s)
		}
	case 10:
		d.failed = d.failed.With(mach)
		if rng.Intn(2) == 0 {
			d.m.PersistAll(mach)
			d.ref.persistAll(mach)
		}
	default: // a load: enumerate, pick, fail what the pick needs, refine
		b := d.addr(1)
		curr := MachineID(rng.Intn(diffMachines))
		d.rc.Curr, d.rc.Failed = curr, d.failed
		d.rc.CandidatesInto(&d.it, b)
		got, want := collect(&d.it), d.ref.candidates(b, curr, d.failed)
		if !reflect.DeepEqual(got, want) {
			d.t.Fatalf("seed %d: candidates at %#x (curr %d, failed %b):\n dense %v\n ref   %v", d.seed, b, curr, d.failed, got, want)
		}
		c := got[rng.Intn(len(got))]
		d.failed |= c.Fail
		d.rc.Failed = d.failed
		d.rc.ApplyReadConstraint(b, c, d.failed.Has(c.Machine))
		d.ref.applyReadConstraint(b, c, curr, d.failed)
	}
}

// compare checks every observable of the two sides against each other;
// it reports whether they agree, having logged the first difference.
func (d *diffRig) compare() bool {
	m, ref := d.m, d.ref
	agree := true
	fail := func(format string, args ...any) {
		if agree {
			d.t.Errorf(format, args...)
		}
		agree = false
	}
	if m.Seq() != ref.seq {
		fail("σ_curr %d, ref %d", m.Seq(), ref.seq)
	}
	hi := m.Seq() + 1
	for ln := LineID(0); ln <= 5; ln++ {
		if got, want := m.StoresOn(ln), ref.lines[ln]; len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			fail("line %d stores\n dense %v\n ref   %v", ln, got, want)
		}
		for mach := MachineID(0); mach < diffMachines; mach++ {
			if got, want := m.Constraint(mach, ln), ref.constraint(mach, ln); got != want {
				fail("constraint of machine %d on line %d: dense %v, ref %v", mach, ln, got, want)
			}
			lo := Seq(d.rng.Intn(int(hi)))
			if got, want := m.HasStoreBy(mach, ln, lo, hi), ref.hasStoreBy(mach, ln, lo, hi); got != want {
				fail("HasStoreBy(%d, line %d, %d, %d): dense %v, ref %v", mach, ln, lo, hi, got, want)
			}
		}
		for off := Addr(0); off < LineSize; off++ {
			b := LineBase(ln) + off
			if got, want := m.InitialByte(b), ref.initialByte(b); got != want {
				fail("initial byte %#x: dense %#x, ref %#x", b, got, want)
			}
		}
		b, after := LineBase(ln)+Addr(d.rng.Intn(LineSize)), Seq(d.rng.Intn(int(hi)))
		gs, gok := m.NextStoreAfter(b, after)
		ws, wok := ref.nextStoreAfter(b, after)
		if gs != ws || gok != wok {
			fail("NextStoreAfter(%#x, %d): dense %d/%v, ref %d/%v", b, after, gs, gok, ws, wok)
		}
		for i, tb := range d.tbs {
			if got, want := tb.lastLineOp(m.slotOf(ln)), d.rtbs[i].tline[ln]; got != want {
				fail("t_{%d,line %d}: dense %d, ref %d", i, ln, got, want)
			}
		}
	}
	for i, tb := range d.tbs {
		rtb := d.rtbs[i]
		if tb.TSfence != rtb.tsfence || len(tb.SB) != len(rtb.sb) || len(tb.FB) != len(rtb.fb) {
			fail("thread %d buffers: dense %+v, ref %+v", i, tb, rtb)
			continue
		}
		for j := range tb.FB {
			if tb.FB[j] != rtb.fb[j] {
				fail("thread %d flush buffer: dense %v, ref %v", i, tb.FB, rtb.fb)
			}
		}
	}
	return agree
}

// TestDenseTablesMatchReference drives the line-record Memory and the
// map-backed reference with the same seeded random op sequences —
// several executions each, separated by Reset — and compares every
// observable after every op.
func TestDenseTablesMatchReference(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		d := newDiffRig(t, seed)
		for op := 0; op < 120; op++ {
			if op > 0 && d.rng.Intn(30) == 0 {
				d.reset()
				if !d.compare() {
					t.Fatalf("seed %d: diverged at the Reset before op %d", seed, op)
				}
			}
			d.step()
			if !d.compare() {
				t.Fatalf("seed %d: diverged at op %d", seed, op)
			}
		}
	}
}

// TestResetLeavesNothingBehind pins the three shapes a dirty-list Reset
// could leak: a line that only ever got a constraint, a line that only
// ever got an initial image, and a line touched in one execution but not
// the next.
func TestResetLeavesNothingBehind(t *testing.T) {
	m, tb := NewMemory(), NewThreadBuf()
	clean := func(when string) {
		t.Helper()
		for ln := LineID(0); ln < 8; ln++ {
			if got := m.Constraint(0, ln); got != DefaultConstraint {
				t.Fatalf("%s: line %d constraint %v survived Reset", when, ln, got)
			}
			if got := m.StoresOn(ln); len(got) != 0 {
				t.Fatalf("%s: line %d stores %v survived Reset", when, ln, got)
			}
			for off := Addr(0); off < LineSize; off++ {
				if got := m.InitialByte(LineBase(ln) + off); got != 0 {
					t.Fatalf("%s: initial byte %#x = %#x survived Reset", when, LineBase(ln)+off, got)
				}
			}
			if got := tb.lastLineOp(m.slotOf(ln)); got != 0 {
				t.Fatalf("%s: t_line of line %d = %d survived Reset", when, ln, got)
			}
		}
	}
	// Execution 1: line 1 is only flushed, line 2 only initialised, line 3
	// stored to.
	tb.ExecClflush(1 * LineSize)
	m.CommitClflush(tb, 0)
	m.InitWrite(2*LineSize+8, 8, ^uint64(0))
	tb.ExecStore(3*LineSize, 8, 7)
	m.CommitStore(tb, 0)
	if m.Constraint(0, 1).Begin != 1 || m.InitialByte(2*LineSize+8) != 0xff || len(m.StoresOn(3)) != 1 {
		t.Fatal("execution 1 did not take effect")
	}
	m.Reset()
	tb.Reset()
	clean("after execution 1")
	// Execution 2 touches line 4 only; lines 1–3 must read as untouched
	// during it and after it.
	tb.ExecStore(4*LineSize, 8, 9)
	m.CommitStore(tb, 0)
	for ln := LineID(1); ln <= 3; ln++ {
		if m.Constraint(0, ln) != DefaultConstraint || len(m.StoresOn(ln)) != 0 || m.InitialByte(LineBase(ln)+8) != 0 {
			t.Fatalf("line %d, untouched in execution 2, is not empty", ln)
		}
	}
	m.Reset()
	tb.Reset()
	clean("after execution 2")
}
