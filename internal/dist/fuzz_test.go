package dist

import (
	"bytes"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzCoordinatorBodies posts arbitrary bytes to the three RPC endpoints of a
// live coordinator. Whatever arrives, no handler panics (the client would see
// the connection drop) or answers 5xx, and a request that is refused leaves
// the frontier exactly as it was. Seeds — valid bodies, a lease request that
// parks, a truncated completion, one whose remainder is bit-flipped and one
// whose remainder claims more nodes than it has bytes — are in testdata/fuzz.
func FuzzCoordinatorBodies(f *testing.F) {
	// A lease that never expires: nothing moves in the frontier but what the
	// fuzzed requests move.
	c, err := StartCoordinator(CoordinatorConfig{
		Check: core.Config{}, Program: fixture(2), Addr: "127.0.0.1:0", LeaseTTL: time.Hour,
	})
	if err != nil {
		f.Fatal(err)
	}
	// Torn down, not waited for: a fuzzed lease request may be holding the
	// unit until the hour is up.
	f.Cleanup(func() {
		c.srv.Close()
		close(c.cpStop)
		c.f.Close()
	})
	paths := []string{"/v2/join", "/v2/lease", "/v2/complete"}
	// A lease request may ask to park for as long as a lease lives; hanging up
	// is how a client stops waiting, and the handler must notice.
	client := &http.Client{Timeout: 100 * time.Millisecond}
	type state struct {
		counters             core.Counters
		bugs                 int
		queued, leased       int
		unitsAdded, unitDone int
	}
	read := func() (s state) {
		t, q, l := c.f.Progress()
		s.counters, s.bugs, s.queued, s.leased = t.Counters, len(t.Bugs), q, l
		s.unitsAdded, s.unitDone = c.f.UnitCounts()
		return s
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		before := read()
		res, err := client.Post("http://"+c.Addr()+path, "application/json", bytes.NewReader(body))
		if os.IsTimeout(err) && path == "/v2/lease" {
			return
		}
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode >= 500 {
			t.Fatalf("POST %s answered %d", path, res.StatusCode)
		}
		if after := read(); res.StatusCode/100 != 2 && after != before {
			t.Fatalf("POST %s was refused (%d) but moved the frontier: %+v -> %+v", path, res.StatusCode, before, after)
		}
	})
}
