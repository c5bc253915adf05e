// Constructs that parse, type-check and pass the syntactic subset check
// but that the front-end's compiler cannot lower: each is a positioned
// diagnostic from the load (exit 2), none a fault mid-exploration.
// Referenced by the golden test; not built by the Go toolchain
// (testdata is skipped).
package main

import "cxl"

type pair struct {
	a, b uint64
}

type table map[uint64]uint64

func (p *pair) first() uint64 { return p.a }

func Program(r *cxl.Region) {
	m := r.NewMachine("m0")
	m.Spawn("t", func() {
		p := &pair{a: 1}
		get := p.first // a method value
		_ = get
		xs := []uint64{1, 2}
		var i int
		for i = range xs { // range assigning to an existing variable
		}
		var byValue pair // a struct by value
		_ = byValue
		lit := pair{a: 2} // a struct literal by value
		_ = lit
		keyed := []uint64{1: 5} // a keyed slice literal
		_ = keyed
		t := make(table) // make of a non-slice
		_ = t
		s := string(rune(i)) // a conversion outside integers
		_ = s
	})
}
