package chaos

import (
	"errors"
	"os"
	"syscall"
	"time"
)

// This file is the checker's durable-state layer: every checkpoint
// and journal file is read, written, renamed or replaced through it, so
// there is one retry policy, one crash-safe replace recipe, and every fault
// point is drawn in one fixed order. The operations are methods on the
// injector because it owns those fault points; like the fault methods they
// are safe on a nil receiver, which is plain fault-free I/O.

// The retry policy: transient errors (injected ones, and the usual
// interruptible-syscall suspects) are retried a few times with exponential
// backoff; permanent errors (ENOSPC, EACCES, ...) surface immediately.
const ioAttempts = 5

func ioBackoff(attempt int) time.Duration {
	return time.Millisecond << uint(attempt-1) // 1, 2, 4, 8 ms
}

func transientIO(err error) bool {
	return IsTransient(err) ||
		errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}

// Retry runs op until it succeeds, fails permanently, or has failed
// transiently ioAttempts times, sleeping the backoff between attempts.
// onRetry, when non-nil, is called once before every attempt after the
// first. The last attempt's error is returned.
func Retry(onRetry func(), op func() error) error {
	var err error
	for attempt := 1; attempt <= ioAttempts; attempt++ {
		if attempt > 1 {
			time.Sleep(ioBackoff(attempt - 1))
			if onRetry != nil {
				onRetry()
			}
		}
		if err = op(); err == nil || !transientIO(err) {
			break
		}
	}
	return err
}

// ReadFile reads a whole file, retrying transient faults; the bytes pass
// through Corrupt. A missing file is a permanent error, so it comes back
// after one read as the os error (errors.Is fs.ErrNotExist) and "nothing
// there yet" stays distinguishable from a fault.
func (in *Injector) ReadFile(path string) ([]byte, error) {
	var raw []byte
	err := Retry(nil, func() (err error) {
		if err = in.ReadFault(); err == nil {
			raw, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return in.Corrupt(raw), nil
}

// Rename renames oldpath to newpath, retrying transient faults.
func (in *Injector) Rename(oldpath, newpath string) error {
	return Retry(nil, func() error { return in.rename(oldpath, newpath) })
}

func (in *Injector) rename(oldpath, newpath string) error {
	if err := in.RenameFault(); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

// ReplaceFile installs data at path crash-safely: the bytes go to the
// sibling path+".tmp", which is fsynced and atomically renamed over path,
// so a crash at any point leaves either the old file or the new one, never
// a torn one. Each attempt rebuilds the temp file from scratch and removes
// it on failure, so a torn attempt can neither leak into the installed
// file nor outlive the call. onRetry is as for Retry.
func (in *Injector) ReplaceFile(path string, data []byte, onRetry func()) error {
	return Retry(onRetry, func() error { return in.replaceOnce(path, data) })
}

func (in *Injector) replaceOnce(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a failed one is harmless
			os.Remove(tmp)
		}
	}()
	if n, ferr := in.WriteFault(len(data)); ferr != nil {
		if n > 0 {
			f.Write(data[:n]) // the torn prefix a real short write leaves
		}
		return ferr
	}
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = in.SyncFault(); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return in.rename(tmp, path)
}
