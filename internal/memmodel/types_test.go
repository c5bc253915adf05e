package memmodel

import (
	"testing"
	"testing/quick"
)

func TestFailSetBasics(t *testing.T) {
	var f FailSet
	if !f.Empty() {
		t.Fatal("zero FailSet should be empty")
	}
	f = f.With(3)
	f = f.With(0)
	if f.Empty() {
		t.Fatal("set with members reported empty")
	}
	if !f.Has(3) || !f.Has(0) || f.Has(1) {
		t.Fatalf("membership wrong: %b", f)
	}
	got := f.Machines()
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Machines() = %v, want [0 3]", got)
	}
}

func TestFailSetDeviceNeverMember(t *testing.T) {
	var f FailSet
	f = f.With(DeviceID)
	if !f.Empty() {
		t.Fatal("DeviceID must never join a failure set")
	}
	if f.Has(DeviceID) {
		t.Fatal("Has(DeviceID) must be false")
	}
}

func TestFailSetDiff(t *testing.T) {
	a := FailSet(0).With(1).With(2).With(5)
	b := FailSet(0).With(2)
	d := a.Diff(b)
	if !d.Has(1) || !d.Has(5) || d.Has(2) {
		t.Fatalf("Diff wrong: %b", d)
	}
}

func TestFailSetWithIdempotent(t *testing.T) {
	err := quick.Check(func(raw uint64, m uint8) bool {
		f := FailSet(raw)
		id := MachineID(m % MaxMachines)
		g := f.With(id)
		return g.Has(id) && g.With(id) == g && f.Diff(g).Empty() == (f&^g == 0)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want LineID
	}{
		{0, 0}, {1, 0}, {63, 0}, {64, 1}, {127, 1}, {128, 2}, {4096, 64},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%d) = %d, want %d", c.a, got, c.want)
		}
	}
	if LineBase(2) != 128 {
		t.Errorf("LineBase(2) = %d, want 128", LineBase(2))
	}
}

func TestStoreCoversAndByte(t *testing.T) {
	s := Store{Addr: 100, Size: 4, Val: 0x44332211}
	for i, want := range []byte{0x11, 0x22, 0x33, 0x44} {
		b := Addr(100 + i)
		if !s.Covers(b) {
			t.Fatalf("store should cover %d", b)
		}
		if got := s.Byte(b); got != want {
			t.Errorf("Byte(%d) = %#x, want %#x", b, got, want)
		}
	}
	if s.Covers(99) || s.Covers(104) {
		t.Error("covers out-of-range byte")
	}
}

func TestStoreByteLittleEndianQuick(t *testing.T) {
	err := quick.Check(func(val uint64, off uint8) bool {
		s := Store{Addr: 0, Size: 8, Val: val}
		b := Addr(off % 8)
		return s.Byte(b) == byte(val>>(8*b))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestConstraintString(t *testing.T) {
	if got := DefaultConstraint.String(); got != "[0,∞)" {
		t.Errorf("default constraint = %q", got)
	}
	if got := (Constraint{Begin: 4, End: 7}).String(); got != "[4,7)" {
		t.Errorf("constraint = %q", got)
	}
}

func TestValidSize(t *testing.T) {
	for _, sz := range []uint8{1, 2, 4, 8} {
		if !ValidSize(sz) {
			t.Errorf("size %d should be valid", sz)
		}
	}
	for _, sz := range []uint8{0, 3, 5, 6, 7, 9, 16} {
		if ValidSize(sz) {
			t.Errorf("size %d should be invalid", sz)
		}
	}
}

func TestSBKindString(t *testing.T) {
	kinds := map[SBKind]string{
		SBStore: "store", SBClflush: "clflush", SBClflushopt: "clflushopt", SBSfence: "sfence",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("SBKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if SBKind(99).String() != "unknown" {
		t.Error("unknown kind should stringify as unknown")
	}
}

// ValidSize reports whether sz is a supported access size.
func ValidSize(sz uint8) bool {
	return sz == 1 || sz == 2 || sz == 4 || sz == 8
}
