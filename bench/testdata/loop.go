// A thread that spins an arithmetic loop with no memory events: what the
// gofront interpreter costs per loop iteration when the checker's
// scheduler, decision tree and memory model are not involved at all.
package main

import "cxl"

const iterations = 100000

func Program(r *cxl.Region) {
	cell := r.Alloc(8)
	m := r.NewMachine("m0")
	m.Spawn("spin", func() {
		var acc uint64
		for i := uint64(0); i < iterations; i++ {
			acc = acc*31 + i
		}
		cxl.Store64(cell, acc)
	})
}
