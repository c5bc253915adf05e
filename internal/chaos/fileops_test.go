package chaos

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestRetryPolicy: a permanent error surfaces at once, a transient one is
// retried until the fifth attempt, and onRetry fires once per extra attempt.
func TestRetryPolicy(t *testing.T) {
	_, injected := New(Config{WriteErrPct: 100}).WriteFault(1)
	for _, tc := range []struct {
		name        string
		errs        []error // op's result per attempt; the last one repeats
		wantCalls   int
		wantSuccess bool
	}{
		{"success", []error{nil}, 1, true},
		{"permanent", []error{syscall.ENOSPC}, 1, false},
		{"missing file", []error{fs.ErrNotExist}, 1, false},
		{"EINTR forever", []error{syscall.EINTR}, 5, false},
		{"injected forever", []error{injected}, 5, false},
		{"transient then success", []error{syscall.EAGAIN, injected, nil}, 3, true},
		{"transient then permanent", []error{injected, syscall.EACCES}, 2, false},
	} {
		for _, hook := range []bool{true, false} {
			calls, retries := 0, 0
			var onRetry func()
			if hook {
				onRetry = func() { retries++ }
			}
			err := Retry(onRetry, func() error {
				e := tc.errs[min(calls, len(tc.errs)-1)]
				calls++
				return e
			})
			if calls != tc.wantCalls || (err == nil) != tc.wantSuccess {
				t.Errorf("%s: %d attempts, err %v; want %d attempts, success=%v", tc.name, calls, err, tc.wantCalls, tc.wantSuccess)
			}
			if want := tc.errs[len(tc.errs)-1]; err != want {
				t.Errorf("%s: returned %v, want the last attempt's %v", tc.name, err, want)
			}
			if hook && retries != calls-1 {
				t.Errorf("%s: onRetry fired %d times over %d attempts", tc.name, retries, calls)
			}
		}
	}
}

// TestReadFileMissingIsOneAttempt: a missing file is not a fault. The
// attempt that reaches the file system returns fs.ErrNotExist and is the
// last one, whatever faults were injected before it: the injector's dice
// end exactly where a twin's do after that many ReadFault draws.
func TestReadFileMissingIsOneAttempt(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope")
	var none *Injector
	if _, err := none.ReadFile(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("nil injector: %v, want fs.ErrNotExist", err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		cfg := Config{Seed: seed, ReadErrPct: 50}
		in, twin := New(cfg), New(cfg)
		_, err := in.ReadFile(missing)
		if IsInjected(err) {
			continue // five faults in a row: the file was never reached
		}
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("seed %d: %v, want fs.ErrNotExist", seed, err)
		}
		for i := in.Stats().Reads; i > 0; i-- {
			twin.ReadFault()
		}
		if err := twin.ReadFault(); err != nil {
			t.Fatalf("seed %d: twin's attempt %d faulted; the sequences diverged", seed, in.Stats().Reads+1)
		}
		for i := 0; i < 64; i++ {
			if (in.ReadFault() == nil) != (twin.ReadFault() == nil) {
				t.Fatalf("seed %d: ReadFile drew past the attempt that found the file missing", seed)
			}
		}
	}
}

// TestReplaceFileFailureLeavesOldFile: whichever step of the recipe fails,
// permanently or transiently to the last attempt, the installed file is
// byte-identical to what it was and no temp file is left behind.
func TestReplaceFileFailureLeavesOldFile(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         Config
		wantRetries int
	}{
		{"write, permanent", Config{WriteErrPct: 100, Permanent: syscall.ENOSPC}, 0},
		{"write, transient", Config{WriteErrPct: 100}, 4},
		{"write, torn", Config{WriteErrPct: 100, ShortWritePct: 100}, 4},
		{"sync", Config{SyncErrPct: 100}, 4},
		{"rename", Config{RenameErrPct: 100}, 4},
		{"rename, permanent", Config{RenameErrPct: 100, Permanent: syscall.EACCES}, 0},
	} {
		path := filepath.Join(t.TempDir(), "state")
		if err := os.WriteFile(path, []byte("old contents"), 0o644); err != nil {
			t.Fatal(err)
		}
		retries := 0
		err := New(tc.cfg).ReplaceFile(path, []byte("new contents, longer than the old"), func() { retries++ })
		if !IsInjected(err) {
			t.Errorf("%s: err = %v, want the injected fault", tc.name, err)
		}
		if tc.cfg.Permanent != nil && !errors.Is(err, tc.cfg.Permanent) {
			t.Errorf("%s: %v does not carry %v", tc.name, err, tc.cfg.Permanent)
		}
		if retries != tc.wantRetries {
			t.Errorf("%s: %d retries, want %d", tc.name, retries, tc.wantRetries)
		}
		if got, _ := os.ReadFile(path); string(got) != "old contents" {
			t.Errorf("%s: installed file now %q", tc.name, got)
		}
		if _, serr := os.Stat(path + ".tmp"); !errors.Is(serr, fs.ErrNotExist) {
			t.Errorf("%s: temp file left behind (%v)", tc.name, serr)
		}
	}
}

// TestReplaceFileHealsTornAttempt: a torn attempt followed by a clean one
// installs exactly data — none of the torn prefix, nothing of a stale temp
// file from a crashed writer.
func TestReplaceFileHealsTornAttempt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	data := []byte("exactly these bytes")
	if err := os.WriteFile(path+".tmp", []byte("a stale temp file, longer than the data it precedes"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := New(Config{Seed: 3, WriteErrPct: 100, ShortWritePct: 100, MaxFaults: 1})
	retries := 0
	if err := in.ReplaceFile(path, data, func() { retries++ }); err != nil {
		t.Fatal(err)
	}
	if s := in.Stats(); s.ShortWrites != 1 || retries != 1 {
		t.Fatalf("%d torn writes, %d retries; want one of each", s.ShortWrites, retries)
	}
	if got, _ := os.ReadFile(path); string(got) != string(data) {
		t.Fatalf("installed %q, want %q", got, data)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file left behind (%v)", err)
	}
}

// TestFileOpsOnNilInjector: chaos off is a nil injector, and every file
// operation is then plain I/O.
func TestFileOpsOnNilInjector(t *testing.T) {
	var in *Injector
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("scratch"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := in.Rename(a, b); err != nil {
		t.Fatal(err)
	}
	if err := in.ReplaceFile(a, []byte("durable"), nil); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{a: "durable", b: "scratch"} {
		if got, err := in.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("%s: %q, %v; want %q", path, got, err, want)
		}
	}
	if _, err := os.Stat(a + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file left behind (%v)", err)
	}
}
