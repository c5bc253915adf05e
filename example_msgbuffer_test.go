package cxlmc_test

// A crash-consistent cross-node message ring — the kind of CXL
// shared-memory message buffer the paper's introduction motivates
// (HydraRPC-style communication between machines).
//
// A producer machine appends messages to a ring in CXL memory and advances
// a flushed tail pointer; a consumer machine reads every message at or
// below the committed tail. The checker proves that the consumer never
// observes a torn or missing message even when the producer machine fails
// mid-send, and shows how the guarantee breaks when the payload flush is
// omitted.

import (
	"fmt"

	cxlmc "repro"
)

const (
	ringSlots    = 4
	ringSlotSize = 64 // one cache line per message
)

func ringProgram(flushPayload bool) func(*cxlmc.Program) {
	return func(p *cxlmc.Program) {
		prod := p.NewMachine("producer")
		cons := p.NewMachine("consumer")
		ring := p.AllocAligned(ringSlots*ringSlotSize, 64)
		tail := p.AllocAligned(8, 64)

		prod.Thread("send", func(t *cxlmc.Thread) {
			for i := uint64(0); i < 3; i++ {
				slot := ring + cxlmc.Addr(i%ringSlots)*ringSlotSize
				// Payload: a sequence number and a checksum-ish echo.
				t.Store64(slot, i+1)
				t.Store64(slot+8, (i+1)*1000)
				if flushPayload {
					t.CLFlush(slot)
					t.SFence()
				}
				// Commit: advance the flushed tail.
				t.Store64(tail, i+1)
				t.CLFlush(tail)
				t.SFence()
			}
		})

		cons.Thread("recv", func(t *cxlmc.Thread) {
			t.Join(prod)
			n := t.Load64(tail)
			t.Assert(n <= 3, "tail overshot: %d", n)
			for i := uint64(0); i < n; i++ {
				slot := ring + cxlmc.Addr(i%ringSlots)*ringSlotSize
				seq := t.Load64(slot)
				body := t.Load64(slot + 8)
				t.Assert(seq == i+1, "message %d: lost or torn header (%d)", i+1, seq)
				t.Assert(body == (i+1)*1000, "message %d: torn body (%d)", i+1, body)
			}
		})
	}
}

// Example_msgbuffer checks the ring with and without the payload flush.
func Example_msgbuffer() {
	for _, flush := range []bool{true, false} {
		// One worker: a run that stops at its first bug stops at the same
		// execution on any number of cores.
		res, err := cxlmc.Run(cxlmc.Config{Workers: 1}, ringProgram(flush))
		if err != nil {
			panic(err)
		}
		fmt.Printf("flushPayload=%-5v %5d executions, %4d failure points\n",
			flush, res.Executions, res.FailurePoints)
		if res.Buggy() {
			for _, b := range res.Bugs {
				fmt.Printf("  found: %s\n", b)
			}
		} else {
			fmt.Println("  every partial-failure delivery is consistent")
		}
	}
	// Output:
	// flushPayload=true     10 executions,    6 failure points
	//   every partial-failure delivery is consistent
	// flushPayload=false     2 executions,    3 failure points
	//   found: [assertion] message 3: torn body (0) (execution 2, machine "consumer", thread "recv")
}
