package jobs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cxlmc "repro"
	"repro/internal/progir"
	"repro/internal/recipe"
)

// FuzzSpecJSON feeds arbitrary bytes to what POST /jobs does with a body
// before anything is queued: the strict decoder, normalize, then — for a spec
// that passed — Config over a base and, for benchmark and generated programs,
// Program again. Nothing panics or hangs; a rejection is an error that says
// which part of the spec it refuses; and a spec that passed resolves, with
// every knob where normalize promised. Source specs stop at normalize, which
// loads them once: FuzzLoadSource in internal/gofront owns what follows.
func FuzzSpecJSON(f *testing.F) {
	for _, seed := range []string{
		`{"bench":"CCEH","keys":4,"bugs":1,"continue":true}`,
		`{"tenant":"alice","bench":"P-BwTree","keys":10,"insert_workers":2,"max_time":"2s","reduction":"off"}`,
		`{"gen":{"seed":3},"seed":1,"max_executions":50}`,
		`{"gen":{"seed":1,"cells":1}}`,
		`{"gen":{"seed":1,"machines":1000000000,"ops_per_thread":1000000000}}`,
		`{"source":"package p\n\nimport \"repro/gofront/cxl\"\n\nfunc Program(p *cxl.Program) {}\n","entry":"Program"}`,
		`{"bench":"CCEH","keys":-1}`,
		`{"bench":"CCEH","keys":2305843009213693952}`,
		`{"bench":"P-ART","stride":4611686018427387904}`,
		`{"bench":"CCEH","insert_workers":20000}`,
		`{"bench":"CCEH","workers":99999,"max_time":-5}`,
		`{"bench":"nope"}`,
		`{"bench":"CCEH","gen":{"seed":1}}`,
		`{"bench":"CCEH","checkpoint_path":"/etc/passwd"}`,
		`{"tenant":"../../x","bench":"CCEH"}`,
		`{"bench":"CCEH","max_time":"1e`,
	} {
		f.Add([]byte(seed))
	}
	base := cxlmc.Config{Workers: 1, MaxTime: 30e9}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := parseSpec(bytes.NewReader(body))
		if err != nil {
			if msg := err.Error(); !strings.HasPrefix(msg, "bad spec: ") && !strings.HasPrefix(msg, "jobs: ") {
				t.Fatalf("rejection does not say what it refuses: %q", msg)
			}
			return
		}
		if !validTenant(spec.Tenant) || spec.Workers < 0 || spec.Workers > maxWorkersPerJob ||
			spec.InsertWorkers < 0 || spec.InsertWorkers > 8 || spec.Keys < 0 || spec.Keys > recipe.MaxKeys ||
			spec.Stride < 0 || spec.Stride > recipe.MaxStride {
			t.Fatalf("normalize let through tenant %q, workers %d, insert workers %d, keys %d, stride %d",
				spec.Tenant, spec.Workers, spec.InsertWorkers, spec.Keys, spec.Stride)
		}
		cfg := spec.Config(base)
		if cfg.Workers < 1 || cfg.MaxExecutions < 0 || cfg.MaxTime <= 0 || cfg.MaxTime > base.MaxTime {
			t.Fatalf("Config: workers %d, max executions %d, max time %v under a base of 1 worker and %v",
				cfg.Workers, cfg.MaxExecutions, cfg.MaxTime, base.MaxTime)
		}
		if spec.Source == "" {
			if _, err := spec.Program(); err != nil {
				t.Fatalf("a spec that normalized does not resolve: %v", err)
			}
		}
	})
}

// FuzzJournalRecover hands arbitrary bytes to a restarting server as its
// journal. Recovery never panics; what it recovers carries ids the server
// could have minted, and the next id it mints is none of them; every job
// adopted into the queue holds a spec that validates — one whose spec no
// longer does never reaches a pool worker (TestRecoveredSpecIsRevalidated
// reads the message it is failed with). Seeds in testdata/fuzz: the journal TestRestartParity's crash
// leaves, the same with its last line torn and with a middle line
// bit-flipped, and records with hostile ids and damaged specs — one in
// the "degraded" state a parent's governor wrote, one over the workload bounds.
func FuzzJournalRecover(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := recoverServer(Config{Dir: dir})
		if err != nil {
			t.Fatalf("recovery refused the journal: %v", err)
		}
		defer s.st.close()
		minted := fmt.Sprintf("j-%06d", s.nextID)
		queued := 0
		for id, j := range s.jobs {
			if n, ok := idOrdinal(id); !ok || n >= s.nextID || id == minted {
				t.Fatalf("recovered id %q next to a next ordinal of %d", id, s.nextID)
			}
			if filepath.Dir(s.st.checkpointPath(id)) != dir {
				t.Fatalf("id %q puts its checkpoint at %s, outside %s", id, s.st.checkpointPath(id), dir)
			}
			switch {
			case j.state == StateQueued:
				queued++
				if err := j.spec.normalize(); err != nil {
					t.Fatalf("%s is queued with a spec that does not validate: %v", id, err)
				}
			case !j.state.Terminal():
				t.Fatalf("%s adopted in state %q", id, j.state)
			}
		}
		if queued != s.q.len() {
			t.Fatalf("%d jobs are in state queued, %d in the queue", queued, s.q.len())
		}
	})
}

// TestRecoveredSpecIsRevalidated: a journaled spec that no longer validates —
// an unknown benchmark, generator bounds the generator would panic on, a
// negative knob under a tenant that is a path — is failed at recovery with
// the message a submit would have been refused with, journaled as such, and
// the intact job next to it is queued.
func TestRecoveredSpecIsRevalidated(t *testing.T) {
	dir := t.TempDir()
	journal := mustLine(t, record{ID: "j-000001", State: StateRunning, Spec: &Spec{Tenant: "t", Bench: "NoSuchBench", Keys: 4}}) +
		mustLine(t, record{ID: "j-000002", State: StateQueued, Spec: &Spec{Tenant: "t", Gen: &GenSpec{Seed: 1, GenConfig: progir.GenConfig{MaxCells: 1}}}}) +
		// "degraded" is the state a parent's memory governor left behind.
		mustLine(t, record{ID: "j-000003", State: "degraded", Spec: &Spec{Tenant: "../x", Bench: "CCEH", Keys: -3}}) +
		mustLine(t, record{ID: "j-000004", State: StateQueued, Spec: testSpec("CCEH")})
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	for restart := 0; restart < 2; restart++ { // the second reads what the first journaled
		s, err := recoverServer(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for id, want := range map[string]string{
			"j-000001": "unknown benchmark", "j-000002": "gen.cells = 1", "j-000003": "bad tenant",
		} {
			if j := s.jobs[id]; j == nil || j.state != StateFailed || !strings.Contains(j.errMsg, want) {
				t.Fatalf("restart %d: %s = %+v, want failed with %q", restart, id, j, want)
			}
		}
		if j := s.jobs["j-000004"]; j == nil || j.state != StateQueued || s.q.len() != 1 {
			t.Fatalf("restart %d: the intact job is %+v with %d queued, want it queued alone", restart, j, s.q.len())
		}
		s.st.close()
	}
}
