package memmodel

import (
	"testing"
	"time"
)

// The benchmarks here are shaped like the memmodel rows of cxlbench's
// traced ledger (bench/probes.go) and carry their names, so
// `go test -bench . ./internal/memmodel` and `cxlbench -traced` tell one
// story: LoadByte/{s1,s8,s64,m4} ↔ memmodel.load_ns.*, CommitStore ↔
// memmodel.commit_store_ns, Flush ↔ memmodel.flush_ns, Reset ↔
// memmodel.reset_ns; LoadWord has no ledger row yet. The op bodies are
// shared with TestHotPathAllocatesNothing, which pins each at zero
// allocations once the first pass has sized the tables.

const benchAddr Addr = 64

// buildLine resets m and commits stores 8-byte stores to the one address
// at, round-robin from the writers' store buffers.
func buildLine(m *Memory, writers []*ThreadBuf, at Addr, stores int) {
	m.Reset()
	for i := 0; i < stores; i++ {
		w := i % len(writers)
		writers[w].ExecStore(at, 8, uint64(i+1))
		m.CommitStore(writers[w], MachineID(w))
	}
}

// loadByteOps returns the two bodies the load rows are made of: building
// a line of the given number of stores, and building it plus one
// post-failure byte load — the full lazy enumeration, newest store to the
// device value, and the constraint refinement for the candidate taken.
// The last machine loads, machine 0 has failed, the others wrote.
func loadByteOps(stores, machines int) (build, full func()) {
	m := NewMemory()
	writers := make([]*ThreadBuf, machines-1)
	for i := range writers {
		writers[i] = NewThreadBuf()
	}
	failed := FailSet(0).With(0)
	rc := ReadContext{Mem: m, Curr: MachineID(machines - 1)}
	var it CandidateIter
	build = func() { buildLine(m, writers, benchAddr, stores) }
	full = func() {
		buildLine(m, writers, benchAddr, stores)
		rc.Failed = failed
		rc.CandidatesInto(&it, benchAddr)
		var last Candidate
		for c, ok := it.Next(); ok; c, ok = it.Next() {
			last = c
		}
		rc.Failed = last.Fail
		rc.ApplyReadConstraint(benchAddr, last, last.Machine != DeviceID && last.Fail.Has(last.Machine))
	}
	return build, full
}

// commitStoreOp: stores spread over four lines, the memory recycled every
// 64.
func commitStoreOp() func(i int) {
	m, tb := NewMemory(), NewThreadBuf()
	return func(i int) {
		if i%64 == 0 {
			m.Reset()
		}
		tb.ExecStore(Addr(64*(1+i%4)), 8, uint64(i))
		m.CommitStore(tb, 0)
	}
}

// flushOp: one clflush commit, then one clflushopt+sfence chain drained
// through CommitFB, each after a store to the flushed line.
func flushOp() func(i int) {
	m, tb := NewMemory(), NewThreadBuf()
	return func(i int) {
		if i%64 == 0 {
			m.Reset()
			tb.Reset()
		}
		a := Addr(64 * (1 + i%4))
		tb.ExecStore(a, 8, uint64(i))
		m.CommitStore(tb, 0)
		tb.ExecClflush(a)
		m.CommitClflush(tb, 0)
		tb.ExecStore(a, 8, uint64(i))
		m.CommitStore(tb, 0)
		tb.ExecClflushopt(a, m.Seq())
		tb.ExecSfence()
		m.CommitClflushopt(tb)
		m.CommitSfence(tb)
		for len(tb.FB) > 0 {
			m.CommitFB(tb, 0)
		}
	}
}

// windowOp: a store buffer filled with sixteen stores, half drained,
// refilled — the window sits at the end of its array with room in front —
// and drained; the memory and buffer recycled every 64.
func windowOp() func(i int) {
	m, tb := NewMemory(), NewThreadBuf()
	fill := func(n int) {
		for j := 0; j < n; j++ {
			tb.ExecStore(Addr(64*(1+j%4)), 8, uint64(j))
		}
	}
	return func(i int) {
		if i%64 == 0 {
			m.Reset()
			tb.Reset()
		}
		fill(16)
		for j := 0; j < 8; j++ {
			m.CommitStore(tb, 0)
		}
		fill(8)
		for len(tb.SB) > 0 {
			m.CommitStore(tb, 0)
		}
	}
}

// resetOps: a line of 64 stores built once, and built then Reset; the
// difference is the Reset of a memory holding that line.
func resetOps() (build, full func()) {
	m, writers := NewMemory(), []*ThreadBuf{NewThreadBuf()}
	build = func() { buildLine(m, writers, benchAddr, 64) }
	full = func() {
		buildLine(m, writers, benchAddr, 64)
		m.Reset()
		writers[0].Reset()
	}
	return build, full
}

// benchNet times b.N runs of full, then b.N of build, and reports the
// difference per op as the net-ns metric next to the gross ns/op — the
// subtraction the ledger's probes make.
func benchNet(b *testing.B, build, full func()) {
	b.ReportAllocs()
	full() // size the tables before the clock starts
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		full()
	}
	gross := time.Since(start)
	b.StopTimer()
	start = time.Now()
	for i := 0; i < b.N; i++ {
		build()
	}
	b.ReportMetric(float64(gross-time.Since(start))/float64(b.N), "net-ns")
}

var loadByteShapes = []struct {
	name             string
	stores, machines int
}{{"s1", 1, 2}, {"s8", 8, 2}, {"s64", 64, 2}, {"m4", 8, 4}}

func BenchmarkLoadByte(b *testing.B) {
	for _, s := range loadByteShapes {
		b.Run(s.name, func(b *testing.B) {
			build, full := loadByteOps(s.stores, s.machines)
			benchNet(b, build, full)
		})
	}
}

// takeNewest is one byte of §4.4's sequence with the newest candidate
// taken: the search's first answer and its refinement.
func takeNewest(rc *ReadContext, it *CandidateIter, b Addr) byte {
	rc.CandidatesInto(it, b)
	c, _ := it.Next()
	rc.ApplyReadConstraint(b, c, rc.Failed.Has(c.Machine))
	return c.Val
}

// loadWordOps returns, for one line shape, the body that builds it and the
// two that build it and then load the word at benchAddr: a run at a time
// (BypassRun, SettledRun, a byte step where neither settles the byte) and
// byte by byte (BypassByte, then the search and refinement per byte). The
// lines are the load_ns shapes: eight stores by machine 0 (s8), sixty-four
// (s64), eight by three machines in turn (m4); the last machine loads.
//
//	terminal     s8, written back by a clflush: one settled run
//	device       s64 on the next word: the whole log walked, then the image
//	bypass       s8, and the loader's own store to the word still buffered
//	partial      s8 written back, then a one-byte store inside the word:
//	             three runs
//	live_remote  m4, nothing written back: byte 0 takes the newest store and
//	             so writes it back, the other seven are a run
func loadWordOps(shape string) (build, runs, bytes func()) {
	stores, machines, at := 8, 2, benchAddr
	switch shape {
	case "device":
		stores, at = 64, benchAddr+8
	case "live_remote":
		machines = 4
	}
	m, loader := NewMemory(), NewThreadBuf()
	writers := make([]*ThreadBuf, machines-1)
	for i := range writers {
		writers[i] = NewThreadBuf()
	}
	rc := ReadContext{Mem: m, Curr: MachineID(machines - 1)}
	var it CandidateIter
	build = func() {
		buildLine(m, writers, at, stores)
		loader.Reset()
		switch shape {
		case "terminal", "partial":
			writers[0].ExecClflush(at)
			m.CommitClflush(writers[0], 0)
			if shape == "partial" {
				m.CommitDirectStore(loader, rc.Curr, at+3, 1, 0xff)
			}
		case "bypass":
			loader.ExecStore(at, 8, 99)
		}
	}
	runs = func() {
		build()
		var val uint64
		for i := 0; i < 8; {
			b := benchAddr + Addr(i)
			v, k, buffered := loader.BypassRun(b, 8-i)
			if !buffered {
				if v, k = rc.SettledRun(b, k); k == 0 {
					v, k = uint64(takeNewest(&rc, &it, b)), 1
				}
			}
			val |= v << (8 * i)
			i += k
		}
		benchSink = val
	}
	bytes = func() {
		build()
		var val uint64
		for i := 0; i < 8; i++ {
			b := benchAddr + Addr(i)
			v, ok := loader.BypassByte(b)
			if !ok {
				v = takeNewest(&rc, &it, b)
			}
			val |= uint64(v) << (8 * i)
		}
		benchSink = val
	}
	return build, runs, bytes
}

var benchSink uint64

var loadWordShapes = []string{"terminal", "device", "bypass", "partial", "live_remote"}

// BenchmarkLoadWord prices one 8-byte load per line shape both ways; net-ns
// is the load alone. The ledger has no row for it yet: memmodel.load_ns.*
// call CandidatesInto and ApplyReadConstraint for one byte, which the run
// path leaves as they were.
func BenchmarkLoadWord(b *testing.B) {
	for _, shape := range loadWordShapes {
		build, runs, bytes := loadWordOps(shape)
		b.Run(shape+"/runs", func(b *testing.B) { benchNet(b, build, runs) })
		b.Run(shape+"/bytes", func(b *testing.B) { benchNet(b, build, bytes) })
	}
}

// benchOp times b.N calls of op after one that sizes the tables.
func benchOp(b *testing.B, op func(i int)) {
	b.ReportAllocs()
	op(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

func BenchmarkCommitStore(b *testing.B) { benchOp(b, commitStoreOp()) }

func BenchmarkFlush(b *testing.B) { benchOp(b, flushOp()) }

func BenchmarkReset(b *testing.B) {
	build, full := resetOps()
	benchNet(b, build, full)
}

// TestHotPathAllocatesNothing: after one warm-up pass has created the
// line records and grown the logs, committing a store to a known line,
// committing flushes, filling a store buffer, half draining and refilling
// it, enumerating and refining a byte load on a 64-store line, loading a word a run at a time, and resetting the memory and the
// thread buffers allocate nothing.
func TestHotPathAllocatesNothing(t *testing.T) {
	guard := func(name string, op func(i int)) {
		t.Helper()
		for i := 0; i < 128; i++ { // warm-up: two full recycle periods
			op(i)
		}
		i := 0
		if n := testing.AllocsPerRun(256, func() { op(i); i++ }); n != 0 {
			t.Errorf("%s: %v allocs per op after warm-up, want 0", name, n)
		}
	}
	guard("CommitStore to a known line", commitStoreOp())
	guard("clflush / clflushopt+sfence+CommitFB", flushOp())
	guard("a store buffer filled, half drained, refilled", windowOp())
	for _, s := range loadByteShapes {
		_, full := loadByteOps(s.stores, s.machines)
		guard("CandidatesInto+drain+ApplyReadConstraint, "+s.name, func(int) { full() })
	}
	for _, shape := range loadWordShapes {
		_, runs, _ := loadWordOps(shape)
		guard("a word loaded a run at a time, "+shape, func(int) { runs() })
	}
	_, reset := resetOps()
	guard("Memory.Reset+ThreadBuf.Reset of a 64-store line", func(int) { reset() })
}
