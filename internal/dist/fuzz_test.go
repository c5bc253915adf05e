package dist

import (
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// FuzzCoordinatorBodies posts arbitrary bytes to the worker route of a live
// coordinator. Whatever arrives, the handler neither panics (the client would
// see the connection drop) nor answers 5xx, and a request that is refused
// leaves the frontier exactly as it was. Seeds are in testdata/fuzz: a request
// for a unit, one that parks, one under other digests, and turns that hand a
// lease back — valid, truncated, with a bit-flipped remainder, with a remainder
// claiming more nodes than it has bytes, and naming another coordinator's run.
// @run, @cfg and @prog in a body stand for this coordinator's run and digests,
// which no file can know.
func FuzzCoordinatorBodies(f *testing.F) {
	// A lease that never expires: nothing moves in the frontier but what the
	// fuzzed requests move.
	c, err := StartCoordinator(CoordinatorConfig{
		Check: core.Config{}, Program: fixture(2), Addr: "127.0.0.1:0", LeaseTTL: time.Hour,
	})
	if err != nil {
		f.Fatal(err)
	}
	// Torn down, not waited for: a fuzzed request may be holding the unit
	// until the hour is up.
	f.Cleanup(func() {
		c.srv.Close()
		c.f.Close()
	})
	// The lease the seeds hand back: unit 1, epoch 0.
	if resp, err := talker(f, c, "seed")("seed-turn-0", nil, true); err != nil || resp.Unit == nil {
		f.Fatalf("first lease: %v, unit %v", err, resp.Unit)
	}
	own := strings.NewReplacer("@run", c.run, "@cfg", c.cfgDigest, "@prog", c.progDigest)
	// A request may ask to park for as long as a lease lives; hanging up is
	// how a client stops waiting, and the handler must notice.
	client := &http.Client{Timeout: 100 * time.Millisecond}
	f.Fuzz(func(t *testing.T, body []byte) {
		before := readFrontier(c)
		res, err := client.Post("http://"+c.Addr()+"/v3/turn", "application/json", strings.NewReader(own.Replace(string(body))))
		if os.IsTimeout(err) {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode >= 500 {
			t.Fatalf("answered %d", res.StatusCode)
		}
		if after := readFrontier(c); res.StatusCode/100 != 2 && after != before {
			t.Fatalf("refused (%d) but moved the frontier: %+v -> %+v", res.StatusCode, before, after)
		}
	})
}
