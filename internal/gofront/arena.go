package gofront

import (
	"go/token"

	"repro/internal/core"
)

// arena is where one execution's values come from that die with it: the
// func-literal closures and what they capture, captured-variable cells,
// &T{} objects, slice literals (backing array and box) and append's
// element lists, and the wrappers Machine.Spawn hands the checker. It
// belongs to the core.Program handle that runs the execution (kept in
// Program.Local), and arenaOf recycles all of it when that handle's next
// set-up starts: by then the checker has torn down every thread of the
// previous execution, and no value the subset can make outlives its
// execution — there are no package-level variables, and what a thread
// stores in simulated memory is integers. A recycled value is zeroed as Go
// zeroes a fresh allocation. What append grows, and the boxes of the
// slices append and make return, are Go's own, so cap() and aliasing stay
// native Go's.
type arena struct {
	cells    slab[cell] // captured variables and objects' fields
	objects  slab[object]
	closures slab[closure]
	// refs backs closures' caps and []any literals and element lists,
	// ints []uint64 ones.
	refs slab[any]
	ints slab[uint64]
	// spawns are reused with the thread body each was made with.
	spawns []*spawn
	nspawn int
}

// arenaOf returns p's arena, reset for the execution whose set-up is
// starting.
func arenaOf(p *core.Program) *arena {
	slot := p.Local()
	a, _ := (*slot).(*arena)
	if a == nil {
		a = &arena{}
		*slot = a
	}
	a.cells.reset()
	a.objects.reset()
	a.closures.reset()
	a.refs.reset()
	a.ints.reset()
	a.nspawn = 0
	return a
}

// A slab allocates slabChunk values at least at once and keeps slabMax at
// most: an execution that makes more values of a kind than that gets the
// rest from the heap, which collects them as it did before there was an
// arena. The arena recycles an execution's working set; it does not hold
// on to what a runaway loop throws away.
const (
	slabChunk = 64
	slabMax   = 1 << 16
)

// slab hands out values of one type from chunks it keeps across resets.
// A chunk never moves, so a value stays where it was handed out until the
// next reset.
type slab[T any] struct {
	chunks [][]T
	kept   int // the values the chunks hold
	cur    int // the chunk being carved
	off    int // how much of it is handed out
	// boxes[c][off] is the slice of chunk c at off, boxed as an any (see
	// boxed); empty is the empty slice's box.
	boxes [][]any
	empty any
}

// one returns a zero value.
func (s *slab[T]) one() *T { return &s.take(1)[0] }

// take returns n zero values, contiguous, as a slice of capacity n, so an
// append to it is Go's own growth.
func (s *slab[T]) take(n int) []T {
	out, _ := s.carve(n)
	return out
}

// carve is take, reporting whether the values came from a chunk (at
// chunks[cur][off-n:off]) rather than the heap.
func (s *slab[T]) carve(n int) ([]T, bool) {
	if n == 0 {
		return make([]T, 0), false
	}
	for ; s.cur < len(s.chunks); s.cur, s.off = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			s.off += n
			return c[s.off-n : s.off : s.off], true
		}
	}
	size := slabChunk
	if k := len(s.chunks); k > 0 {
		size = 2 * len(s.chunks[k-1])
	}
	if size = max(size, n); s.kept+size > slabMax {
		return make([]T, n), false // cur stays past the chunks: reset clears them all
	}
	s.chunks = append(s.chunks, make([]T, size))
	s.kept += size
	s.off = n
	return s.chunks[s.cur][:n:n], true
}

// boxed is take(n), also boxed as the any a slice value travels as. A box
// holds where the slice lies and its length and capacity, nothing else, so
// the box made for the same place and length in an earlier execution is
// this slice's box too, and is handed out again instead of a new one.
func (s *slab[T]) boxed(n int) (any, []T) {
	out, carved := s.carve(n)
	switch {
	case n == 0:
		if s.empty == nil {
			s.empty = out
		}
		return s.empty, out
	case !carved:
		return out, out
	}
	for len(s.boxes) <= s.cur {
		s.boxes = append(s.boxes, nil)
	}
	boxes := s.boxes[s.cur]
	if boxes == nil {
		boxes = make([]any, len(s.chunks[s.cur]))
		s.boxes[s.cur] = boxes
	}
	b := boxes[s.off-n]
	if b == nil || len(b.([]T)) != n {
		b = out
		boxes[s.off-n] = b
	}
	return b, out
}

// reset zeroes what was handed out and starts over from the first chunk.
func (s *slab[T]) reset() {
	for i := 0; i < s.cur && i < len(s.chunks); i++ {
		clear(s.chunks[i])
	}
	if s.cur < len(s.chunks) {
		clear(s.chunks[s.cur][:s.off])
	}
	s.cur, s.off = 0, 0
}

// spawn is a thread body Machine.Spawn passes the checker: the closure to
// call on a machine of its own.
type spawn struct {
	src   *Source
	sites *SiteMap
	arena *arena
	cl    *closure
	pos   token.Pos
	// run is body as the func the checker calls, made once per struct.
	run func(*core.Thread)
}

func (sp *spawn) body(t *core.Thread) {
	tm := sp.src.newMachine(t, sp.sites, sp.arena)
	defer tm.release()
	tm.call(sp.cl, sp.pos)
}

// spawn returns a thread body for the execution.
func (a *arena) spawn() *spawn {
	if a.nspawn == len(a.spawns) {
		sp := &spawn{}
		sp.run = sp.body
		a.spawns = append(a.spawns, sp)
	}
	a.nspawn++
	return a.spawns[a.nspawn-1]
}

// literal evaluates a slice literal's elements into a backing array from
// the execution's arena and returns the slice as its any.
func literal[T any](elems []func(*frame) T, fr *frame) any {
	box, out := slabOf[T](fr.m.arena).boxed(len(elems))
	for i, e := range elems {
		out[i] = e(fr)
	}
	return box
}

// slabOf returns a's slab of backing arrays for slices of T: []uint64 or
// []any.
func slabOf[T any](a *arena) *slab[T] {
	if s, ok := any(&a.ints).(*slab[T]); ok {
		return s
	}
	return any(&a.refs).(*slab[T])
}
