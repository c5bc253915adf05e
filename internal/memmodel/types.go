// Package memmodel implements the x86-TSO-with-flushes memory model that
// CXLMC checks programs against (paper §2.2, §4.1).
//
// The model follows the Px86_sim formalization (Raad et al., POPL 2020) as
// summarized by Table 1 of the CXLMC paper: per-thread store buffers order
// store/sfence/clflush instructions, a per-thread flush buffer lets
// clflushopt reorder with later stores and flushes, and a global store
// queue holds every store that has reached the (coherent, shared) cache.
//
// On top of the TSO machinery, the package implements the paper's central
// data structure: per-machine, per-cache-line *constraints* — intervals
// [Begin, End) bounding the sequence number of the last write-back of that
// cache line from that machine's cache before the machine's failure
// (paper §3.3). Post-failure loads resolve lazily against these
// constraints (Algorithms 3 and 4).
package memmodel

import "fmt"

// Addr is a byte address in the simulated CXL shared-memory region.
type Addr uint64

// Seq is a global sequence number (σ in the paper). Sequence numbers are
// assigned to stores, clflushes and sfences in the order they take effect
// on the cache, and double as the model checker's timestamps.
type Seq uint64

// SeqInf is the "infinity" timestamp used as the open upper end of
// cache-line constraints.
const SeqInf Seq = ^Seq(0)

// MachineID identifies a simulated compute node. The CXL memory device
// itself is DeviceID; it never fails, and initial memory contents are
// attributed to it.
type MachineID int32

// DeviceID is the pseudo-machine that owns initial (already persisted)
// memory contents. It is never a member of any failure set.
const DeviceID MachineID = -1

// MaxMachines bounds the number of compute nodes so failure sets fit in a
// word. CXL 3.2 allows up to 4095 sharers; the checker's benchmarks use a
// handful, and 64 keeps FailSet a cheap value type.
const MaxMachines = 64

// FailSet is a set of failed machines (Φ in the paper), one bit per
// MachineID. DeviceID is never present.
type FailSet uint64

// Has reports whether machine m is in the set.
func (f FailSet) Has(m MachineID) bool {
	if m == DeviceID {
		return false
	}
	return f&(1<<uint(m)) != 0
}

// With returns the set extended with machine m.
func (f FailSet) With(m MachineID) FailSet {
	if m == DeviceID {
		return f
	}
	return f | 1<<uint(m)
}

// Diff returns the machines in f that are not in g.
func (f FailSet) Diff(g FailSet) FailSet { return f &^ g }

// Empty reports whether the set has no members.
func (f FailSet) Empty() bool { return f == 0 }

// Machines returns the members in increasing MachineID order.
func (f FailSet) Machines() []MachineID {
	var out []MachineID
	for i := MachineID(0); f != 0 && i < MaxMachines; i++ {
		if f.Has(i) {
			out = append(out, i)
			f &^= 1 << uint(i)
		}
	}
	return out
}

// LineSize is the cache line size in bytes (x86).
const LineSize = 64

// LineID identifies a cache line (Addr / LineSize).
type LineID uint64

// LineOf returns the cache line containing address a.
func LineOf(a Addr) LineID { return LineID(a / LineSize) }

// LineBase returns the first address of cache line ln.
func LineBase(ln LineID) Addr { return Addr(ln) * LineSize }

// Constraint is a cache-line constraint [Begin, End): the last write-back
// of the line from one machine's cache happened at a timestamp within the
// interval. The default constraint is [0, ∞). Stores from the machine at
// or before Begin are definitely persisted; stores at or after End are
// definitely lost if the machine fails (paper §3.3).
type Constraint struct {
	Begin Seq
	End   Seq
}

// DefaultConstraint is the unconstrained interval [0, ∞).
var DefaultConstraint = Constraint{Begin: 0, End: SeqInf}

func (c Constraint) String() string {
	if c.End == SeqInf {
		return fmt.Sprintf("[%d,∞)", c.Begin)
	}
	return fmt.Sprintf("[%d,%d)", c.Begin, c.End)
}

// Store is one store that has taken effect on the cache: the ⟨val, σ, μ⟩
// triplet of the paper, extended with its address range so that mixed-size
// accesses resolve per byte (paper §4.4).
type Store struct {
	Addr    Addr
	Size    uint8 // 1, 2, 4 or 8 bytes
	Val     uint64
	Seq     Seq
	Machine MachineID
}

// Covers reports whether the store writes byte address b.
func (s *Store) Covers(b Addr) bool {
	return b >= s.Addr && b < s.Addr+Addr(s.Size)
}

// Byte returns the value the store writes at byte address b, which must be
// covered. Values are little-endian, matching x86.
func (s *Store) Byte(b Addr) byte {
	return byte(s.Val >> (8 * (b - s.Addr)))
}

// run narrows a run of bytes [b, end) — end already at most the first byte
// of any newer store that overlaps it — by store s. When s lies outside the
// bytes, or covers only bytes past b (the run must stop short of them: they
// are s's, not an older store's), covers is false and end is what is left.
// When s covers b it is the source of [b, end), up to its own last byte,
// and val is those bytes, little-endian.
func (s *Store) run(b, end Addr) (val uint64, newEnd Addr, covers bool) {
	last := s.Addr + Addr(s.Size)
	if s.Addr >= end || last <= b {
		return 0, end, false
	}
	if s.Addr > b {
		return 0, s.Addr, false
	}
	if last < end {
		end = last
	}
	val = s.Val >> (8 * (b - s.Addr))
	if k := end - b; k < 8 {
		val &= 1<<(8*k) - 1
	}
	return val, end, true
}

// ValidSize reports whether sz is a supported access size.
func ValidSize(sz uint8) bool {
	return sz == 1 || sz == 2 || sz == 4 || sz == 8
}
