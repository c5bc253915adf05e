package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	cxlmc "repro"
	"repro/internal/chaos"
)

// The job store is the server's durable half: an append-only JSONL
// journal of state-machine transitions (one object per line, fsynced per
// append) plus one engine checkpoint file per job, written by the
// checker itself through Config.CheckpointPath in its existing
// crash-safe format. Recovery is last-writer-wins per job id over the
// journal, tolerant of everything a kill -9 can leave behind: a
// zero-byte journal, a torn trailing line, duplicate entries for one id,
// and garbage from an interrupted append followed by its retry.

// record is one journal line. The first record for a job carries its
// spec; later transitions carry only the fields that changed. Recovery
// merges them last-writer-wins.
type record struct {
	ID      string        `json:"id"`
	Tenant  string        `json:"tenant,omitempty"`
	State   State         `json:"state"`
	Spec    *Spec         `json:"spec,omitempty"`
	Retries int           `json:"retries,omitempty"`
	Error   string        `json:"error,omitempty"`
	Result  *cxlmc.Result `json:"result,omitempty"`
	Time    time.Time     `json:"t"`
	// Submitted and Started are written on a compacted line only, which
	// stands for every record of its job: the time of the job's first record
	// and of its first running one. Recovery derives them from the appended
	// lines, whose own time is Time.
	Submitted *time.Time `json:"submitted,omitempty"`
	Started   *time.Time `json:"started,omitempty"`
}

// store owns the journal file and the per-job checkpoint paths.
type store struct {
	dir     string
	inj     *chaos.Injector
	onRetry func() // observability hook (may be nil): one call per retried journal write
	f       *os.File
	// torn is set when the previous append may have left a partial line
	// behind (a short write or an ambiguous error); the next append then
	// leads with a newline so the retried record starts on a clean line
	// instead of concatenating onto the torn prefix.
	torn bool
}

const journalName = "journal.jsonl"

// openStore opens (creating if needed) the store in dir, recovers the
// journal, compacts it to one merged record per job, and returns the
// recovered records in first-submitted order.
func openStore(dir string, inj *chaos.Injector, onRetry func()) (*store, []record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("jobs: store dir: %w", err)
	}
	st := &store{dir: dir, inj: inj, onRetry: onRetry}
	recs, err := st.recover()
	if err != nil {
		return nil, nil, err
	}
	if err := st.compact(recs); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(st.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	st.f = f
	return st, recs, nil
}

func (st *store) journalPath() string { return filepath.Join(st.dir, journalName) }

// checkpointPath is where the engine checkpoints job id's exploration.
func (st *store) checkpointPath(id string) string {
	return filepath.Join(st.dir, id+".ckpt")
}

// removeCheckpoint deletes a terminal job's checkpoint file. Called
// after the terminal journal record is durable, so a crash in between
// leaves only an ignored leftover, never a resumed-from-nothing job.
func (st *store) removeCheckpoint(id string) {
	os.Remove(st.checkpointPath(id))
}

// recover reads the journal and merges records per job id,
// last-writer-wins. A missing or zero-byte journal is an empty store. A
// trailing line that does not parse is a torn final append and is
// dropped; unparseable lines elsewhere (bit flips, a torn append healed
// by its retry on the next line) are skipped — the job's surviving
// records still win.
func (st *store) recover() ([]record, error) {
	raw, err := os.ReadFile(st.journalPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: reading journal: %w", err)
	}
	lines := bytes.Split(raw, []byte("\n"))
	merged := make(map[string]*record)
	var order []string
	for _, line := range lines {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || !rec.State.valid() {
			// The final line tearing is the expected kill -9 artifact;
			// anything else is skipped the same way — later records for
			// the same job carry the truth.
			continue
		}
		if _, minted := idOrdinal(rec.ID); !minted {
			// Not an id this server hands out: the id names the job's
			// checkpoint file, so nothing else is let near a path.
			continue
		}
		prev, ok := merged[rec.ID]
		if !ok {
			prev = &record{ID: rec.ID, Submitted: rec.Submitted, Started: rec.Started}
			if prev.Submitted == nil {
				prev.Submitted = &rec.Time
			}
			merged[rec.ID] = prev
			order = append(order, rec.ID)
		}
		if prev.Started == nil && rec.State == StateRunning {
			prev.Started = &rec.Time
		}
		// Last writer wins for lifecycle fields; identity fields stick
		// from whichever record carried them.
		prev.State = rec.State
		prev.Retries = rec.Retries
		prev.Error = rec.Error
		prev.Time = rec.Time
		if rec.Spec != nil {
			prev.Spec = rec.Spec
		}
		if rec.Tenant != "" {
			prev.Tenant = rec.Tenant
		}
		if rec.Result != nil {
			prev.Result = rec.Result
		}
	}
	// A record without a spec cannot be re-run; drop it (a torn first
	// append for a job the client never saw acknowledged).
	out := make([]record, 0, len(order))
	for _, id := range order {
		if merged[id].Spec == nil {
			continue
		}
		out = append(out, *merged[id])
	}
	return out, nil
}

// compact rewrites the journal as one merged record per job (temp file +
// fsync + rename, the checkpoint layer's crash-safety recipe), so the
// journal's size is bounded by the job count across any number of
// restarts.
func (st *store) compact(recs []record) error {
	var buf bytes.Buffer
	for _, rec := range recs {
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("jobs: encoding journal record: %w", err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	if err := st.inj.ReplaceFile(st.journalPath(), buf.Bytes(), st.onRetry); err != nil {
		return fmt.Errorf("jobs: compacting journal: %w", err)
	}
	return nil
}

// append journals one transition durably: marshal, write the line,
// fsync. Transient faults (chaos-injected or EINTR-class) are retried
// with backoff; a short write marks the journal torn so the retry —
// and any later append — starts on a fresh line the recovery scan can
// parse. The caller holds the server's journal lock (jmu), so appends are
// ordered.
func (st *store) append(rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	data = append(data, '\n')
	err = chaos.Retry(st.onRetry, func() error {
		line := data
		if st.torn {
			line = append([]byte("\n"), data...)
		}
		if n, err := st.inj.WriteFault(len(line)); err != nil {
			if n > 0 {
				// Simulate the torn append a crash mid-write leaves.
				st.f.Write(line[:n])
				st.torn = true
			}
			return err
		}
		n, err := st.f.Write(line)
		if err != nil {
			if n > 0 && n < len(line) {
				st.torn = true
			}
			return err
		}
		st.torn = false
		// A failed fsync is tolerated like a failed periodic checkpoint:
		// the bytes are in the page cache (a process kill cannot lose
		// them) and the next append's fsync covers this one too.
		if err := st.inj.SyncFault(); err == nil {
			st.f.Sync()
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("jobs: journal append: %w", err)
	}
	return nil
}

func (st *store) close() error {
	if st.f == nil {
		return nil
	}
	return st.f.Close()
}

// idOrdinal parses a job id as the server mints them: "j-" and a decimal
// ordinal, of at most 18 digits so that it and its successor fit an int.
func idOrdinal(id string) (n int, ok bool) {
	digits, ok := strings.CutPrefix(id, "j-")
	if !ok || len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// nextIDAfter picks the next job ordinal given the recovered records, so
// restarted servers never reuse an id.
func nextIDAfter(recs []record) int {
	next := 1
	for _, rec := range recs {
		if n, ok := idOrdinal(rec.ID); ok && n >= next {
			next = n + 1
		}
	}
	return next
}

// sortRecords orders recovered records by numeric id, restoring submit
// order even if the journal was compacted from an arbitrary map walk.
func sortRecords(recs []record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
}
