package chaos

import (
	"bytes"
	"errors"
	"syscall"
	"testing"
)

// TestNilInjectorIsQuiet: every method must be a no-fault no-op on nil,
// because that is exactly how "chaos off" is wired through the engine.
func TestNilInjectorIsQuiet(t *testing.T) {
	var in *Injector
	if err := in.ReadFault(); err != nil {
		t.Fatal(err)
	}
	if _, err := in.WriteFault(100); err != nil {
		t.Fatal(err)
	}
	if err := in.SyncFault(); err != nil {
		t.Fatal(err)
	}
	if err := in.RenameFault(); err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3}
	if got := in.Corrupt(data); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("nil Corrupt changed data: %v", got)
	}
	in.Stall()
	if in.SpuriousWake() {
		t.Fatal("nil injector produced spurious events")
	}
	if s := in.Stats(); s.Total() != 0 {
		t.Fatalf("nil stats: %+v", s)
	}
}

// TestDeterministicSequence: two injectors with the same config yield the
// same decisions in the same call order.
func TestDeterministicSequence(t *testing.T) {
	cfg := Config{Seed: 7, WriteErrPct: 40, ReadErrPct: 40, SyncErrPct: 40, ShortWritePct: 50}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 200; i++ {
		an, aerr := a.WriteFault(64)
		bn, berr := b.WriteFault(64)
		if (aerr == nil) != (berr == nil) || an != bn {
			t.Fatalf("call %d diverged: (%d,%v) vs (%d,%v)", i, an, aerr, bn, berr)
		}
		if (a.ReadFault() == nil) != (b.ReadFault() == nil) {
			t.Fatalf("call %d read decisions diverged", i)
		}
	}
}

// TestFaultBudget: once MaxFaults faults have been injected the injector
// must go quiet, guaranteeing chaotic runs terminate.
func TestFaultBudget(t *testing.T) {
	in := New(Config{Seed: 1, WriteErrPct: 100, MaxFaults: 5})
	faults := 0
	for i := 0; i < 100; i++ {
		if _, err := in.WriteFault(10); err != nil {
			faults++
		}
	}
	if faults != 5 {
		t.Fatalf("injected %d faults with a budget of 5", faults)
	}
	if !in.Exhausted() {
		t.Fatal("budget spent but Exhausted() is false")
	}
	if s := in.Stats(); s.Writes != 5 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestTransientVsPermanent: transient faults satisfy IsTransient;
// permanent faults do not, and they expose the wrapped cause.
func TestTransientVsPermanent(t *testing.T) {
	tr := New(Config{Seed: 1, WriteErrPct: 100})
	_, err := tr.WriteFault(10)
	if err == nil || !IsTransient(err) || !IsInjected(err) {
		t.Fatalf("transient fault: %v", err)
	}

	pm := New(Config{Seed: 1, WriteErrPct: 100, Permanent: syscall.ENOSPC})
	_, err = pm.WriteFault(10)
	if err == nil || IsTransient(err) || !IsInjected(err) {
		t.Fatalf("permanent fault: %v", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("permanent fault does not wrap ENOSPC: %v", err)
	}
	if IsTransient(errors.New("unrelated")) || IsInjected(errors.New("unrelated")) {
		t.Fatal("unrelated errors classified as injected")
	}
}

// TestShortWrite: a short-write fault reports a prefix length within the
// write's size.
func TestShortWrite(t *testing.T) {
	in := New(Config{Seed: 3, WriteErrPct: 100, ShortWritePct: 100})
	for i := 0; i < 50; i++ {
		n, err := in.WriteFault(64)
		if err == nil {
			t.Fatal("expected a fault at 100%")
		}
		if n < 0 || n >= 64 {
			t.Fatalf("short write length %d out of [0,64)", n)
		}
	}
	if s := in.Stats(); s.ShortWrites != 50 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestCorruptFlipsExactlyOneBit at 100% corruption chance.
func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	in := New(Config{Seed: 9, CorruptPct: 100})
	orig := []byte{0x00, 0xFF, 0x55, 0xAA}
	data := append([]byte(nil), orig...)
	data = in.Corrupt(data)
	diff := 0
	for i := range orig {
		x := orig[i] ^ data[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want exactly 1 (%x -> %x)", diff, orig, data)
	}
}
