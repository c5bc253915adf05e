// The loop of loop.go with one store and one load per iteration. The
// benchmark runs a native twin written against the checker's Thread API
// and subtracts it, leaving what the interpreter adds per memory event.
// The stores rotate over 1024 cells so no cache line's store log grows
// long enough for the memory model to dominate the difference.
package main

import "cxl"

const (
	iterations = 10000
	cells      = 1024
)

func Program(r *cxl.Region) {
	base := r.AllocAligned(cells*8, 64)
	m := r.NewMachine("m0")
	m.Spawn("spin", func() {
		var acc uint64
		for i := uint64(0); i < iterations; i++ {
			p := base + cxl.Ptr((i%cells)*8)
			cxl.Store64(p, i)
			acc += cxl.Load64(p)
		}
		cxl.Store64(base, acc)
	})
}
