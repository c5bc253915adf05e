package core_test

import (
	"encoding/base64"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// parentFixture is testdata/checkpoint_v2_parent.json — spineProgram's
// checkpoint as an earlier commit wrote it — and the repro tokens inside.
func parentFixture(f *testing.F) (raw []byte, tokens []string) {
	raw, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v2_parent.json"))
	if err != nil {
		f.Fatal(err)
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		f.Fatal(err)
	}
	tally, _ := cp.Totals()
	for _, b := range tally.Bugs {
		tokens = append(tokens, b.ReproToken)
	}
	return raw, tokens
}

// FuzzReplayToken hands Replay arbitrary token strings, and — so the fuzzer
// gets past the digest checks — arbitrary path bytes inside a real token's
// envelope. Whatever arrives, Replay does not panic: it refuses the token with
// an error or runs exactly one execution inside the step budget. Seeds: the
// fixture's tokens, and one in testdata/fuzz.
func FuzzReplayToken(f *testing.F) {
	_, tokens := parentFixture(f)
	var envelope map[string]any
	for _, tok := range tokens {
		raw, err := base64.RawURLEncoding.DecodeString(tok)
		if err != nil {
			f.Fatal(err)
		}
		if err := json.Unmarshal(raw, &envelope); err != nil {
			f.Fatal(err)
		}
		path, err := base64.StdEncoding.DecodeString(envelope["path"].(string))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tok, path)
	}
	f.Fuzz(func(t *testing.T, token string, path []byte) {
		envelope["path"] = path
		raw, err := json.Marshal(envelope)
		if err != nil {
			t.Fatal(err)
		}
		for _, tok := range []string{token, base64.RawURLEncoding.EncodeToString(raw)} {
			res, err := core.Replay(tok, spineConfig(), spineProgram)
			if err == nil && (res.Executions != 1 || res.Steps > 2_000_001) {
				t.Fatalf("replay ran %d executions, %d steps", res.Executions, res.Steps)
			}
		}
	})
}

// FuzzLoadCheckpoint writes arbitrary bytes where a checkpoint is expected.
// Whatever they are, nothing panics; bytes that do not decode are quarantined
// and the run told to start fresh; a checkpoint of another exploration or
// format version is a hard error that leaves the file alone; and one of this
// exploration either resumes or — a unit in it undecodable — is quarantined.
// Seeds, in testdata/fuzz: the fixture, a truncated and a bit-flipped copy.
func FuzzLoadCheckpoint(f *testing.F) {
	raw, _ := parentFixture(f)
	f.Add(raw)
	cfgDigest, progDigest, err := core.ExplorationDigests(spineConfig(), spineProgram)
	if err != nil {
		f.Fatal(err)
	}
	exists := func(path string) bool { _, err := os.Stat(path); return err == nil }
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ck")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, loadErr := core.LoadCheckpoint(path, nil)
		r, quarantined, err := core.ResumeCheckpoint(path, 0, cfgDigest, progDigest, nil)
		moved := exists(path+".corrupt") && !exists(path)
		switch {
		case loadErr != nil && strings.Contains(loadErr.Error(), "corrupt checkpoint"):
			if !quarantined || !moved || r != nil || err != nil {
				t.Fatalf("undecodable bytes: resume %v, quarantined %v (moved %v), err %v", r, quarantined, moved, err)
			}
		case loadErr != nil || cp.Seed != 0 || cp.ConfigDigest != cfgDigest || cp.ProgramDigest != progDigest:
			if err == nil || quarantined || r != nil || !exists(path) {
				t.Fatalf("foreign checkpoint (load: %v): resume %v, quarantined %v, err %v", loadErr, r, quarantined, err)
			}
		default:
			if err != nil || (r != nil) == quarantined || quarantined != moved {
				t.Fatalf("own checkpoint: resume %v, quarantined %v (moved %v), err %v", r, quarantined, moved, err)
			}
		}
	})
}
