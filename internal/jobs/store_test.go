package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cxlmc "repro"
	"repro/internal/chaos"
)

func testSpec(bench string) *Spec {
	sp := &Spec{Bench: bench, Keys: 4, InsertWorkers: 1}
	if err := sp.normalize(); err != nil {
		panic(err)
	}
	return sp
}

func writeJournal(t *testing.T, dir string, content string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustLine(t *testing.T, rec record) string {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// A store opened on an empty or absent journal recovers zero jobs.
func TestStoreEmptyAndZeroByte(t *testing.T) {
	for _, name := range []string{"absent", "zero-byte"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if name == "zero-byte" {
				writeJournal(t, dir, "")
			}
			st, recs, err := openStore(dir, nil, nil)
			if err != nil {
				t.Fatalf("openStore: %v", err)
			}
			defer st.close()
			if len(recs) != 0 {
				t.Fatalf("recovered %d records from %s journal, want 0", len(recs), name)
			}
			if got := nextIDAfter(recs); got != 1 {
				t.Fatalf("nextIDAfter = %d, want 1", got)
			}
		})
	}
}

// A journal written while the checker still had a wedge watchdog may hold
// a done job whose result carries a kind-6 ("wedged") bug. Bug kinds are
// journaled by number, so it recovers as written: the retired kind still
// renders "wedged" and the kind after it keeps its number.
func TestStoreRecoversRetiredWedgedKind(t *testing.T) {
	dir := t.TempDir()
	res := &cxlmc.Result{Bugs: []cxlmc.Bug{
		{Kind: 6, Message: "thread A/t did not yield within 30s: callback blocking outside the simulated API?"},
		{Kind: 7, Message: "decision-event limit exceeded (4): per-execution state-space blowup in checked program?"},
	}}
	line := mustLine(t, record{ID: "j-000001", Tenant: "a", State: StateDone, Spec: testSpec("CCEH"), Result: res, Time: time.Now().UTC()})
	if !strings.Contains(line, `"Kind":6`) {
		t.Fatalf("bug kinds are not journaled by number: %s", line)
	}
	writeJournal(t, dir, line)

	st, recs, err := openStore(dir, nil, nil)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	defer st.close()
	if len(recs) != 1 || recs[0].State != StateDone || recs[0].Result == nil || len(recs[0].Result.Bugs) != 2 {
		t.Fatalf("recovered %+v, want the done job with both bugs", recs)
	}
	bugs := recs[0].Result.Bugs
	if got := bugs[0].Kind.String(); got != "wedged" {
		t.Fatalf("kind 6 renders %q, want \"wedged\"", got)
	}
	if bugs[1].Kind != cxlmc.BugResourceExhausted {
		t.Fatalf("kind 7 recovered as %v, want resource-exhausted", bugs[1].Kind)
	}
}

// A torn trailing line — the canonical kill -9 artifact — is dropped;
// every whole record before it survives.
func TestStoreTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec("CCEH")
	full := mustLine(t, record{ID: "j-000001", Tenant: "a", State: StateQueued, Spec: sp, Time: time.Now().UTC()}) +
		mustLine(t, record{ID: "j-000001", State: StateRunning})
	torn := `{"id":"j-000001","state":"done","result":{"Bu`
	writeJournal(t, dir, full+torn)

	st, recs, err := openStore(dir, nil, nil)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	defer st.close()
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	if recs[0].State != StateRunning {
		t.Fatalf("state = %s, want running (torn 'done' line must not count)", recs[0].State)
	}
	if recs[0].Spec == nil || recs[0].Spec.Bench != "CCEH" {
		t.Fatalf("spec lost in recovery: %+v", recs[0].Spec)
	}
}

// Duplicate entries for one job id merge last-writer-wins: the final
// state and error win; the spec and tenant stick from the
// record that carried them.
func TestStoreDuplicateIDLastWriterWins(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec("CCEH")
	journal := mustLine(t, record{ID: "j-000001", Tenant: "alice", State: StateQueued, Spec: sp, Time: time.Now().UTC()}) +
		mustLine(t, record{ID: "j-000002", Tenant: "bob", State: StateQueued, Spec: testSpec("FAST_FAIR")}) +
		mustLine(t, record{ID: "j-000001", State: StateRunning, Error: "stale"}) +
		mustLine(t, record{ID: "j-000001", State: StateQueued, Error: "interrupted"}) +
		mustLine(t, record{ID: "j-000002", State: StateFailed, Error: "unknown benchmark"})
	writeJournal(t, dir, journal)

	st, recs, err := openStore(dir, nil, nil)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	defer st.close()
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	sortRecords(recs)
	j1, j2 := recs[0], recs[1]
	if j1.State != StateQueued || j1.Error != "interrupted" || j1.Tenant != "alice" {
		t.Fatalf("j-000001 merged wrong: state=%s error=%q tenant=%s", j1.State, j1.Error, j1.Tenant)
	}
	if j1.Spec == nil || j1.Spec.Bench != "CCEH" {
		t.Fatalf("j-000001 spec lost: %+v", j1.Spec)
	}
	if j2.State != StateFailed || j2.Error != "unknown benchmark" {
		t.Fatalf("j-000002 merged wrong: state=%s error=%q", j2.State, j2.Error)
	}
	if got := nextIDAfter(recs); got != 3 {
		t.Fatalf("nextIDAfter = %d, want 3", got)
	}
}

// Garbage in the middle of the journal (a torn append healed by its
// retried record on the next line) is skipped without losing the
// records around it.
func TestStoreMidFileGarbage(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec("CCEH")
	journal := mustLine(t, record{ID: "j-000001", Tenant: "a", State: StateQueued, Spec: sp}) +
		`{"id":"j-000001","state":"runn` + "\n" + // torn append...
		mustLine(t, record{ID: "j-000001", State: StateRunning}) + // ...healed by its retry
		"\n" + // stray blank line
		`{"id":"","state":"done"}` + "\n" + // id-less junk
		`{"id":"j-000001","state":"exploded"}` + "\n" + // unknown state
		mustLine(t, record{ID: "j-000001", State: StateDone})
	writeJournal(t, dir, journal)

	st, recs, err := openStore(dir, nil, nil)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	defer st.close()
	if len(recs) != 1 || recs[0].State != StateDone {
		t.Fatalf("recovered %+v, want one done record", recs)
	}
}

// A job whose only surviving records carry no spec cannot be re-run and
// is dropped rather than recovered broken.
func TestStoreSpeclessRecordDropped(t *testing.T) {
	dir := t.TempDir()
	journal := mustLine(t, record{ID: "j-000007", State: StateQueued}) // spec line was torn away
	writeJournal(t, dir, journal)

	st, recs, err := openStore(dir, nil, nil)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	defer st.close()
	if len(recs) != 0 {
		t.Fatalf("recovered %d records, want 0 (specless)", len(recs))
	}
	// But its id is still burned: restarted servers must not reuse it.
	if got := nextIDAfter([]record{{ID: "j-000007"}}); got != 8 {
		t.Fatalf("nextIDAfter = %d, want 8", got)
	}
}

// Opening the store compacts the journal to one merged line per job, so
// its size is bounded by the job count across restarts.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	sp := testSpec("CCEH")
	var journal strings.Builder
	journal.WriteString(mustLine(t, record{ID: "j-000001", Tenant: "a", State: StateQueued, Spec: sp}))
	for i := 0; i < 20; i++ {
		journal.WriteString(mustLine(t, record{ID: "j-000001", State: StateRunning}))
		journal.WriteString(mustLine(t, record{ID: "j-000001", State: StateQueued, Error: fmt.Sprintf("run %d", i)}))
	}
	writeJournal(t, dir, journal.String())

	st, recs, err := openStore(dir, nil, nil)
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	st.close()
	if len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1", len(recs))
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(raw), "\n")
	if lines != 1 {
		t.Fatalf("compacted journal has %d lines, want 1:\n%s", lines, raw)
	}
	// And the compacted journal round-trips.
	st2, recs2, err := openStore(dir, nil, nil)
	if err != nil {
		t.Fatalf("re-open: %v", err)
	}
	defer st2.close()
	if len(recs2) != 1 || recs2[0].Error != "run 19" || recs2[0].Spec == nil {
		t.Fatalf("round-trip lost data: %+v", recs2)
	}
}

// Appends retried through injected write faults leave a journal the
// recovery scan reads back whole: the tear is healed by the retry
// starting on a fresh line.
func TestStoreAppendChaos(t *testing.T) {
	dir := t.TempDir()
	inj := chaos.New(chaos.Config{Seed: 42, WriteErrPct: 35, SyncErrPct: 20})
	retries := 0
	st, _, err := openStore(dir, inj, func() { retries++ })
	if err != nil {
		t.Fatalf("openStore: %v", err)
	}
	sp := testSpec("CCEH")
	const n = 30
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j-%06d", 1+i%26)
		rec := record{ID: id, Tenant: "t", State: StateQueued, Spec: sp, Time: time.Now().UTC()}
		if i%3 == 0 {
			rec.State = StateDone
		}
		if err := st.append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st.close()
	if retries == 0 {
		t.Fatal("chaos injected no retries; raise WriteErrPct")
	}

	st2, recs, err := openStore(dir, nil, nil)
	if err != nil {
		t.Fatalf("re-open after chaos: %v", err)
	}
	defer st2.close()
	if len(recs) != 26 { // 30 appends over 26 distinct ids
		t.Fatalf("recovered %d records, want 26 (retries=%d)", len(recs), retries)
	}
	for _, rec := range recs {
		if rec.Spec == nil {
			t.Fatalf("record %s lost its spec through chaos", rec.ID)
		}
	}
}
