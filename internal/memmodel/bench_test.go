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
// memmodel.reset_ns. The op bodies are shared with
// TestHotPathAllocatesNothing, which pins each at zero allocations once
// the first pass has sized the tables.

const benchAddr Addr = 64

// buildLine resets m and commits stores 8-byte stores to one address,
// round-robin from the writers' store buffers.
func buildLine(m *Memory, writers []*ThreadBuf, stores int) {
	m.Reset()
	for i := 0; i < stores; i++ {
		w := i % len(writers)
		writers[w].ExecStore(benchAddr, 8, uint64(i+1))
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
	build = func() { buildLine(m, writers, stores) }
	full = func() {
		buildLine(m, writers, stores)
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

// resetOps: a line of 64 stores built once, and built then Reset; the
// difference is the Reset of a memory holding that line.
func resetOps() (build, full func()) {
	m, writers := NewMemory(), []*ThreadBuf{NewThreadBuf()}
	build = func() { buildLine(m, writers, 64) }
	full = func() {
		buildLine(m, writers, 64)
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
// committing flushes, enumerating and refining a byte load on a 64-store
// line, and resetting the memory and the thread buffers allocate nothing.
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
	for _, s := range loadByteShapes {
		_, full := loadByteOps(s.stores, s.machines)
		guard("CandidatesInto+drain+ApplyReadConstraint, "+s.name, func(int) { full() })
	}
	_, reset := resetOps()
	guard("Memory.Reset+ThreadBuf.Reset of a 64-store line", func(int) { reset() })
}
