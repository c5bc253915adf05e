package memmodel

import (
	"math/rand"
	"testing"
)

func TestStoreBufferFIFO(t *testing.T) {
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 1)
	tb.ExecClflush(0)
	tb.ExecSfence()
	tb.ExecStore(8, 8, 2)
	kinds := []SBKind{SBStore, SBClflush, SBSfence, SBStore}
	for i, want := range kinds {
		h := tb.Head()
		if h == nil || h.Kind != want {
			t.Fatalf("entry %d: got %v, want %v", i, h, want)
		}
		tb.popSB()
	}
	if tb.Head() != nil {
		t.Fatal("buffer should be drained")
	}
}

func TestBypassNewestStoreWins(t *testing.T) {
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 0x1111111111111111)
	tb.ExecStore(0, 8, 0x2222222222222222)
	v, ok := tb.BypassByte(3)
	if !ok || v != 0x22 {
		t.Fatalf("bypass = %#x,%v; want 0x22,true", v, ok)
	}
}

func TestBypassPartialOverlap(t *testing.T) {
	// An 8-byte store followed by a 1-byte store to its middle: bypass
	// must merge per byte (TSO store forwarding is byte granular here).
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 0x8877665544332211)
	tb.ExecStore(2, 1, 0xFF)
	if v, ok := tb.BypassByte(2); !ok || v != 0xFF {
		t.Fatalf("byte 2 = %#x,%v; want 0xFF", v, ok)
	}
	if v, ok := tb.BypassByte(3); !ok || v != 0x44 {
		t.Fatalf("byte 3 = %#x,%v; want 0x44", v, ok)
	}
}

func TestBypassMiss(t *testing.T) {
	tb := NewThreadBuf()
	tb.ExecStore(0, 4, 7)
	if _, ok := tb.BypassByte(4); ok {
		t.Fatal("bypass hit outside the stored range")
	}
	if _, ok := tb.BypassByte(100); ok {
		t.Fatal("bypass hit on empty range")
	}
}

func TestBypassIgnoresFlushEntries(t *testing.T) {
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 0xAB)
	tb.ExecClflush(0)
	tb.ExecClflushopt(0, 0)
	if v, ok := tb.BypassByte(0); !ok || v != 0xAB {
		t.Fatalf("bypass should skip flush entries, got %#x,%v", v, ok)
	}
}

func TestDiscard(t *testing.T) {
	tb := NewThreadBuf()
	tb.ExecStore(0, 8, 1)
	tb.FB = append(tb.FB, FBEntry{Addr: 0, EffSeq: 1})
	tb.Discard()
	if !tb.Empty() {
		t.Fatal("Discard should drain both buffers")
	}
}

// TestOrderingMatrix probes the Table 1 / Px86_sim ordering behaviours that
// the buffer + commit machinery implements.
func TestOrderingMatrix(t *testing.T) {
	t.Run("store_store_program_order", func(t *testing.T) {
		// Writes commit to the cache in program order (TSO).
		m := NewMemory()
		tb := NewThreadBuf()
		tb.ExecStore(0, 8, 1)
		tb.ExecStore(8, 8, 2)
		s1 := m.CommitStore(tb, 0)
		s2 := m.CommitStore(tb, 0)
		if s1.Val != 1 || s2.Val != 2 || s1.Seq >= s2.Seq {
			t.Fatalf("stores out of order: %v %v", s1, s2)
		}
	})

	t.Run("clflush_ordered_after_store_same_thread", func(t *testing.T) {
		// Write → clflush is preserved (Table 1): a clflush executed after
		// a store commits after it, so the store lands at or before the
		// raised Begin.
		m := NewMemory()
		tb := NewThreadBuf()
		tb.ExecStore(0, 8, 1)
		tb.ExecClflush(0)
		st := m.CommitStore(tb, 0)
		eff := m.CommitClflush(tb, 0)
		if eff.NewBegin <= st.Seq {
			t.Fatalf("clflush begin %d must cover store %d", eff.NewBegin, st.Seq)
		}
	})

	t.Run("clflushopt_reorders_past_later_store_different_line", func(t *testing.T) {
		// clflushopt → W is NOT preserved for different cache lines
		// (Table 1, X): the buffered clflushopt may take effect with a
		// timestamp before a later store's commit.
		m := NewMemory()
		tb := NewThreadBuf()
		tb.ExecStore(0, 8, 1) // line 0
		tb.ExecClflushopt(0, 0)
		tb.ExecStore(64, 8, 2) // line 1
		st0 := m.CommitStore(tb, 0)
		m.CommitClflushopt(tb) // enters F_τ
		st1 := m.CommitStore(tb, 0)
		// The clflushopt remains buffered past the later store; when it
		// finally lands, its effective timestamp reflects the earlier
		// execution point, i.e. < st1.Seq.
		eff := m.CommitFB(tb, 0)
		if eff.NewBegin >= st1.Seq {
			t.Fatalf("clflushopt did not reorder: eff %d, later store %d", eff.NewBegin, st1.Seq)
		}
		if eff.NewBegin < st0.Seq {
			t.Fatalf("clflushopt reordered before same-line store: eff %d, store %d", eff.NewBegin, st0.Seq)
		}
	})

	t.Run("clflushopt_ordered_after_store_same_line", func(t *testing.T) {
		// W → clflushopt on the SAME cache line is preserved (Table 1,
		// CL): the flush must cover the store.
		m := NewMemory()
		tb := NewThreadBuf()
		tb.ExecStore(0, 8, 1)
		tb.ExecClflushopt(0, 0)
		st := m.CommitStore(tb, 0)
		m.CommitClflushopt(tb)
		eff := m.CommitFB(tb, 0)
		if eff.NewBegin < st.Seq {
			t.Fatalf("same-line clflushopt must not pass the store: eff %d < store %d", eff.NewBegin, st.Seq)
		}
	})

	t.Run("clflushopt_not_past_earlier_sfence", func(t *testing.T) {
		// sfence → clflushopt is preserved (Table 1): a clflushopt
		// executed after an sfence cannot take effect before it.
		m := NewMemory()
		tb := NewThreadBuf()
		tb.ExecStore(0, 8, 1)
		tb.ExecSfence()
		tb.ExecClflushopt(64, 0) // ExecSeq 0: tries to claim the earliest slot
		m.CommitStore(tb, 0)
		m.CommitSfence(tb)
		sfenceAt := tb.TSfence
		m.CommitClflushopt(tb)
		eff := m.CommitFB(tb, 0)
		if eff.NewBegin < sfenceAt {
			t.Fatalf("clflushopt passed an earlier sfence: eff %d, sfence %d", eff.NewBegin, sfenceAt)
		}
	})

	t.Run("clflushopt_before_later_sfence", func(t *testing.T) {
		// clflushopt → sfence is preserved: the checker drains F_τ when
		// committing sfence, so a buffered clflushopt cannot remain
		// pending past it. Here we verify the drain-order contract: after
		// CommitSfence the caller flushes F_τ and the flush's effective
		// timestamp predates the fence.
		m := NewMemory()
		tb := NewThreadBuf()
		tb.ExecStore(0, 8, 1)
		tb.ExecClflushopt(0, 0)
		tb.ExecSfence()
		m.CommitStore(tb, 0)
		m.CommitClflushopt(tb)
		m.CommitSfence(tb)
		eff := m.CommitFB(tb, 0)
		if eff.NewBegin >= tb.TSfence {
			t.Fatalf("clflushopt effect %d should precede sfence %d", eff.NewBegin, tb.TSfence)
		}
	})

	t.Run("two_clflushopt_different_lines_unordered", func(t *testing.T) {
		// clflushopt → clflushopt on different lines may reorder
		// (Table 1, X): both enter F_τ; their effective timestamps are
		// independent of buffer order.
		m := NewMemory()
		tb := NewThreadBuf()
		tb.ExecStore(0, 8, 1)
		tb.ExecStore(64, 8, 2)
		tb.ExecClflushopt(0, 2)  // executed later in program order
		tb.ExecClflushopt(64, 2) // but same effective window
		m.CommitStore(tb, 0)
		m.CommitStore(tb, 0)
		m.CommitClflushopt(tb)
		m.CommitClflushopt(tb)
		e1 := m.CommitFB(tb, 0)
		e2 := m.CommitFB(tb, 0)
		if e1.Line == e2.Line {
			t.Fatal("expected different lines")
		}
		// Neither effect is forced to order after the other.
		if e1.NewBegin != e2.NewBegin {
			t.Fatalf("independent clflushopt should share effective window: %d vs %d", e1.NewBegin, e2.NewBegin)
		}
	})
}

// TestThreadBufWindowIsAFIFO: random sequences of Exec*, commits, Discard
// and Reset, against plain slices that shift on every pop. After every
// operation Head, BypassRun, Buffered and Empty agree with the reference,
// and once a warm-up has filled each buffer to the most the sequence holds
// in it, the backing arrays stop growing.
func TestThreadBufWindowIsAFIFO(t *testing.T) {
	const ops, most = 20000, 12
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, tb := NewMemory(), NewThreadBuf()
		for i := 0; i < most; i++ {
			tb.ExecClflushopt(64, 0)
		}
		for i := 0; i < most; i++ {
			m.CommitClflushopt(tb)
			tb.ExecStore(64, 8, 0)
		}
		tb.Discard()
		capSB, capFB := cap(tb.sb), cap(tb.fb)
		var sb []SBEntry
		var fb []FBEntry
		addr := func() Addr { return Addr(64 * (1 + rng.Intn(3))) }
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(100); {
			case r < 1:
				tb.Discard()
				sb, fb = nil, nil
			case r < 2:
				m.Reset()
				tb.Reset()
				sb, fb = nil, nil
			case r < 52 && len(sb) < most:
				a := addr() + Addr(rng.Intn(8))
				switch rng.Intn(5) {
				case 0:
					tb.ExecClflush(a)
					sb = append(sb, SBEntry{Kind: SBClflush, Addr: a})
				case 1:
					tb.ExecClflushopt(a, m.Seq())
					sb = append(sb, SBEntry{Kind: SBClflushopt, Addr: a, ExecSeq: m.Seq()})
				case 2:
					tb.ExecSfence()
					sb = append(sb, SBEntry{Kind: SBSfence})
				default:
					size := uint8(1 << rng.Intn(4))
					a = a &^ Addr(size-1)
					v := rng.Uint64() & (1<<(8*uint64(size)) - 1)
					if size == 8 {
						v = rng.Uint64()
					}
					tb.ExecStore(a, size, v)
					sb = append(sb, SBEntry{Kind: SBStore, St: Store{Addr: a, Size: size, Val: v}})
				}
			case r < 80 && len(sb) > 0 && (sb[0].Kind != SBClflushopt || len(fb) < most):
				switch sb[0].Kind {
				case SBStore:
					if st := m.CommitStore(tb, 0); st.Addr != sb[0].St.Addr || st.Val != sb[0].St.Val {
						t.Fatalf("seed %d op %d: committed %+v, the FIFO's head is %+v", seed, op, st, sb[0])
					}
				case SBClflush:
					m.CommitClflush(tb, 0)
				case SBClflushopt:
					m.CommitClflushopt(tb)
					if e := tb.FB[len(tb.FB)-1]; e.Addr != sb[0].Addr {
						t.Fatalf("seed %d op %d: flush buffer took %+v from %+v", seed, op, e, sb[0])
					} else {
						fb = append(fb, e)
					}
				case SBSfence:
					m.CommitSfence(tb)
				}
				sb = sb[1:]
			case len(fb) > 0:
				if eff := m.PreviewFB(tb, 0); eff.Line != LineOf(fb[0].Addr) || eff.NewBegin != fb[0].EffSeq {
					t.Fatalf("seed %d op %d: flush-buffer head previews %+v, the FIFO's is %+v", seed, op, eff, fb[0])
				}
				m.CommitFB(tb, 0)
				fb = fb[1:]
			}
			ref := &ThreadBuf{SB: sb, FB: fb}
			if h, w := tb.Head(), ref.Head(); (h == nil) != (w == nil) || h != nil && *h != *w {
				t.Fatalf("seed %d op %d: Head %+v, the FIFO's %+v", seed, op, h, w)
			}
			if tb.Buffered() != ref.Buffered() || tb.Empty() != ref.Empty() {
				t.Fatalf("seed %d op %d: Buffered %d Empty %v, the FIFO's %d %v", seed, op, tb.Buffered(), tb.Empty(), ref.Buffered(), ref.Empty())
			}
			for b := Addr(64); b < 64*4; b++ {
				v, k, ok := tb.BypassRun(b, 8)
				if wv, wk, wok := ref.BypassRun(b, 8); v != wv || k != wk || ok != wok {
					t.Fatalf("seed %d op %d: BypassRun(%#x) = %#x,%d,%v, the FIFO's %#x,%d,%v", seed, op, b, v, k, ok, wv, wk, wok)
				}
			}
			if cap(tb.sb) != capSB || cap(tb.fb) != capFB {
				t.Fatalf("seed %d op %d: backing arrays grew to %d/%d after warm-up (%d/%d), holding at most %d entries",
					seed, op, cap(tb.sb), cap(tb.fb), capSB, capFB, most)
			}
		}
	}
}

// BypassByte implements TSO local bypassing for one byte (Algorithm 3,
// lines 8–10): the newest store in S_τ covering byte b supplies the value.
// ok is false when no buffered store covers b and the load must go to the
// cache.
func (tb *ThreadBuf) BypassByte(b Addr) (val byte, ok bool) {
	for i := len(tb.SB) - 1; i >= 0; i-- {
		e := &tb.SB[i]
		if e.Kind == SBStore && e.St.Covers(b) {
			return e.St.Byte(b), true
		}
	}
	return 0, false
}
