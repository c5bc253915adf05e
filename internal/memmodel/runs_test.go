package memmodel

import (
	"math/rand"
	"reflect"
	"testing"
)

// This file tests the run path of a load — ThreadBuf.BypassRun and
// ReadContext.SettledRun, composed the way the checker's load loop composes
// them — against §4.4's sequence of single-byte loads (BypassByte, then
// CandidateIter and ApplyReadConstraint per byte), on cloned state.

// runRig is one simulated state: the memory, one thread per machine with
// its buffers, and the failure set.
type runRig struct {
	m      *Memory
	tbs    []*ThreadBuf // tbs[i] belongs to machine i
	failed FailSet
	gpf    bool
}

func (r *runRig) clone() *runRig {
	c := &runRig{m: &Memory{seq: r.m.seq, index: append([]int32(nil), r.m.index...)}, failed: r.failed, gpf: r.gpf}
	for _, rec := range r.m.recs {
		cp := &lineRec{stores: append([]Store(nil), rec.stores...), img: rec.img, dirty: rec.dirty}
		cp.cons = append(cp.consBuf[:0], rec.cons...)
		c.m.recs = append(c.m.recs, cp)
		if rec.dirty {
			c.m.dirty = append(c.m.dirty, cp)
		}
	}
	for _, tb := range r.tbs {
		c.tbs = append(c.tbs, &ThreadBuf{SB: append([]SBEntry(nil), tb.SB...), FB: append([]FBEntry(nil), tb.FB...),
			TSfence: tb.TSfence, tline: append([]Seq(nil), tb.tline...)})
	}
	return c
}

// fail fails machine mach as the checker does: its buffered stores are
// lost and, under GPF, its cached ones written back.
func (r *runRig) fail(mach MachineID) {
	if r.failed.Has(mach) {
		return
	}
	r.failed = r.failed.With(mach)
	if r.gpf {
		r.m.PersistAll(mach)
	}
	r.tbs[mach].Discard()
}

// byteStep resolves byte b the §4.5 way, taking the candidate pick selects
// among the n found, and returns its value and n.
func (r *runRig) byteStep(rc *ReadContext, b Addr, pick func(b Addr, n int) int) (byte, int) {
	var it CandidateIter
	rc.Failed = r.failed
	rc.CandidatesInto(&it, b)
	cands := collect(&it)
	c := cands[pick(b, len(cands))]
	for _, mach := range c.Fail.Diff(r.failed).Machines() {
		r.fail(mach)
	}
	rc.Failed = r.failed
	rc.ApplyReadConstraint(b, c, r.failed.Has(c.Machine))
	return c.Val, len(cands)
}

// loadBytes is the reference: the load as an atomic sequence of single-byte
// loads. cands[i] is how many candidates byte i had, 0 for a bypassed byte.
func (r *runRig) loadBytes(curr MachineID, a Addr, size int, pick func(Addr, int) int) (val uint64, cands []int) {
	rc := &ReadContext{Mem: r.m, Curr: curr, GPF: r.gpf}
	for i := 0; i < size; i++ {
		b := a + Addr(i)
		v, ok := r.tbs[curr].BypassByte(b)
		n := 0
		if !ok {
			v, n = r.byteStep(rc, b, pick)
		}
		val |= uint64(v) << (8 * i)
		cands = append(cands, n)
	}
	return val, cands
}

// loadRuns is the load a run at a time, as the checker's loop takes it: a
// settled run claims one candidate for each of its bytes.
func (r *runRig) loadRuns(curr MachineID, a Addr, size int, pick func(Addr, int) int) (val uint64, cands []int) {
	rc := &ReadContext{Mem: r.m, Curr: curr, GPF: r.gpf}
	for i := 0; i < size; {
		b := a + Addr(i)
		v, k, buffered := r.tbs[curr].BypassRun(b, size-i)
		n := 0
		if !buffered {
			rc.Failed = r.failed
			v, k = rc.SettledRun(b, min(k, LineSize-int(b%LineSize)))
			n = 1
			if k == 0 {
				var bv byte
				bv, n = r.byteStep(rc, b, pick)
				v, k = uint64(bv), 1
			}
		}
		val |= v << (8 * i)
		for j := 0; j < k; j++ {
			cands = append(cands, n)
		}
		i += k
	}
	return val, cands
}

// constraintRows lists every machine's constraint on every line the rig's
// ops can touch.
func (r *runRig) constraintRows() []Constraint {
	var rows []Constraint
	for ln := LineID(0); ln <= 4; ln++ {
		for mach := range r.tbs {
			rows = append(rows, r.m.Constraint(MachineID(mach), ln))
		}
	}
	return rows
}

// TestRunsMatchPerByte drives seeded random op sequences — stores of every
// size at every alignment, split at line boundaries as the checker splits
// them and left in the store buffer until a later op commits them, flushes,
// machine failures, constraint refinements, with and without GPF, on two to
// four machines — and resolves every load both ways on cloned state: a run
// at a time and byte by byte, the same candidate picked wherever a byte has
// a choice. The value, the candidate count of every byte (a run may only
// form where each byte had exactly one) and every constraint row and the
// failure set afterwards must be equal.
//
// Mutation-checked: the test goes red when Store.run stops narrowing the
// run at a newer store over its tail (drop "nothing newer overlaps"), when
// SettledRun drops its revocable test (a live remote store above Begin
// settles a run), and when Store.run stops clipping the run to the store's
// last byte (accept a partially covering store).
func TestRunsMatchPerByte(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		machines := 2 + rng.Intn(3)
		r := &runRig{m: NewMemory(), gpf: rng.Intn(2) == 0}
		for i := 0; i < machines; i++ {
			r.tbs = append(r.tbs, NewThreadBuf())
		}
		for op := 0; op < 80; op++ {
			mach := MachineID(rng.Intn(machines))
			tb := r.tbs[mach]
			size := 1 << rng.Intn(4)
			a := Addr(LineSize + rng.Intn(3*LineSize-8))
			switch k := rng.Intn(16); {
			case k == 0:
				r.m.InitWrite(a, uint8(size), rng.Uint64())
			case k < 5 && !r.failed.Has(mach): // a store, split at the line boundary
				val := rng.Uint64()
				for size > 0 {
					chunk := min(size, int(LineBase(LineOf(a))+LineSize-a))
					tb.ExecStore(a, uint8(chunk), val&(1<<(8*uint(chunk))-1))
					a, val, size = a+Addr(chunk), val>>(8*uint(chunk)), size-chunk
				}
			case k < 8: // commit a buffer head
				if h := tb.Head(); h != nil {
					switch h.Kind {
					case SBStore:
						r.m.CommitStore(tb, mach)
					case SBClflush:
						r.m.CommitClflush(tb, mach)
					case SBClflushopt:
						r.m.CommitClflushopt(tb)
					case SBSfence:
						r.m.CommitSfence(tb)
						for len(tb.FB) > 0 {
							r.m.CommitFB(tb, mach)
						}
					}
				}
			case k == 8 && !r.failed.Has(mach):
				tb.ExecClflush(a)
			case k == 9 && !r.failed.Has(mach):
				tb.ExecClflushopt(a, r.m.Seq())
				tb.ExecSfence()
			case k == 10:
				if s := Seq(rng.Intn(int(r.m.Seq()) + 2)); rng.Intn(2) == 0 {
					r.m.RaiseBegin(mach, LineOf(a), s)
				} else {
					r.m.LowerEnd(mach, LineOf(a), s)
				}
			case k == 11 && rng.Intn(4) == 0:
				r.fail(mach)
			default: // a load, by a live machine
				if r.failed.Has(mach) {
					continue
				}
				salt := rng.Intn(1 << 16)
				pick := func(b Addr, n int) int { return (int(b)*7 + salt) % n }
				ref := r.clone()
				val, cands := r.loadRuns(mach, a, size, pick)
				wantVal, wantCands := ref.loadBytes(mach, a, size, pick)
				if val != wantVal || !reflect.DeepEqual(cands, wantCands) {
					t.Fatalf("seed %d op %d: load [%#x]×%d by machine %d (failed %b, gpf %v)\n runs  %#x, candidates %v\n bytes %#x, candidates %v",
						seed, op, a, size, mach, ref.failed, r.gpf, val, cands, wantVal, wantCands)
				}
				if got, want := r.constraintRows(), ref.constraintRows(); r.failed != ref.failed || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: after load [%#x]×%d by machine %d\n runs  failed %b, constraints %v\n bytes failed %b, constraints %v",
						seed, op, a, size, mach, r.failed, got, ref.failed, want)
				}
			}
		}
	}
}
