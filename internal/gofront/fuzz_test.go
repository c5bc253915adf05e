package gofront_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gofront"
)

// hostPanic reports whether msg is a Go run-time panic of the front-end's
// own code (a nil dereference, a failed type assertion, an index out of
// range) rather than a positioned fault of the checked program: the
// front-end raises those itself, with the file:line in front.
func hostPanic(msg string) bool {
	return !strings.Contains(msg, "fuzz.go:") &&
		(strings.Contains(msg, "runtime error") || strings.Contains(msg, "interface conversion"))
}

// FuzzLoadSource feeds outside bytes through the whole front-end: Load
// (parse, type-check, subset check, compile), Program for every entry,
// and a short exploration. Whatever the bytes are, the outcome is a
// DiagnosticList with valid positions, a run error or reported bugs —
// never a panic escaping Load or Run, never a host panic dressed up as a
// bug of the program, never a hang. The seed corpus is
// examples/src/cceh.go, cmd/cxlmc's golden sources and the programs of
// the evaluation-order fixes.
func FuzzLoadSource(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		s, err := gofront.Load("fuzz.go", src)
		if err != nil {
			var list gofront.DiagnosticList
			if !errors.As(err, &list) || len(list) == 0 || len(list) > 10 {
				t.Fatalf("Load error %T (%v), want a DiagnosticList of 1 to 10", err, err)
			}
			for _, d := range list {
				if d.Msg == "" || d.Pos.IsValid() && (d.Pos.Filename != "fuzz.go" || d.Pos.Column < 1) {
					t.Fatalf("malformed diagnostic %+v", d)
				}
			}
			return
		}
		cfg := core.Config{Workers: 1, MaxExecutions: 4, MaxEventsPerExec: 256, MaxTime: 2 * time.Second}
		for _, entry := range s.Entries() {
			prog, err := s.Program(entry)
			if err != nil {
				t.Fatalf("Program(%q) of a loaded source: %v", entry, err)
			}
			res, err := core.Run(cfg, prog)
			if err != nil {
				if hostPanic(err.Error()) {
					t.Fatalf("entry %s: host panic during setup: %v", entry, err)
				}
				continue
			}
			for _, b := range res.Bugs {
				if b.Kind == core.BugPanic && hostPanic(b.Message) {
					t.Fatalf("entry %s: host panic reported as a bug: %s", entry, b.Message)
				}
			}
		}
	})
}
